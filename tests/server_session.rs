//! Embedded/remote session parity: the same workload through
//! `EmbeddedSession` and through `tdb-client` → `tdb-server` must produce
//! identical results AND identical failures — same `ErrorKind`, same
//! message, same retryability — and remote proofs must verify client-side
//! with no server types.

use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

use tdb::platform::{MemArchive, MemSecretStore};
use tdb::proof::Verifier;
use tdb::session::{to_bytes, with_bytes, EmbeddedSession};
use tdb::{
    ClassRegistry, Db, Durability, Error, ErrorKind, ExtractorRegistry, IndexKind, IndexSpec, Key,
    Options, SecurityMode, Session, StoreOptions,
};
use tdb_client::RemoteDb;
use tdb_server::{Server, ServerConfig};
use tpcb::{TdbDriver, TpcbConfig, TpcbRecord, TpcbSystem};

fn classes() -> ClassRegistry {
    let mut c = ClassRegistry::new();
    tpcb::register_tpcb_classes(&mut c);
    c
}

fn extractors() -> ExtractorRegistry {
    let mut e = ExtractorRegistry::new();
    tpcb::register_tpcb_extractors(&mut e);
    e
}

fn open_db(shards: usize) -> Db {
    Db::open(
        Options::in_memory()
            .classes(classes())
            .extractors(extractors())
            .security(SecurityMode::Full)
            .shards(shards)
            .store_options(StoreOptions::new().lock_timeout_ms(200)),
    )
    .unwrap()
}

/// Start a server over `session`; returns the server and a connected
/// remote session.
fn serve(session: EmbeddedSession) -> (Server, Box<dyn Session>) {
    let server = Server::start(session, ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let remote: Box<dyn Session> = Box::new(RemoteDb::connect(&addr, "parity", classes()).unwrap());
    (server, remote)
}

/// Unwrap the error arm of a session call whose success value has no
/// `Debug` impl (so `unwrap_err`/`expect_err` don't apply).
fn expect_err<T>(r: Result<T, Error>, what: &str) -> Error {
    match r {
        Err(e) => e,
        Ok(_) => panic!("{what}: expected an error, got Ok"),
    }
}

/// Everything `run_workload` observes: exact-lookup ids, the updated
/// balance, the collection count, and the scan/range entry lists.
type WorkloadObservation = (Vec<u64>, i64, u64, Vec<(Key, u64)>, Vec<(Key, u64)>);

/// The shared workload: build a collection, do a read-modify-write, run
/// every read-path query shape, and return everything observable.
fn run_workload(s: &dyn Session) -> WorkloadObservation {
    let t = s.begin().unwrap();
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::BTree).immutable();
    t.ensure_collection("account", &[spec]).unwrap();
    for id in 0..10u32 {
        t.insert("account", &to_bytes(&TpcbRecord::new(id)))
            .unwrap();
    }
    t.commit(Durability::Durable).unwrap();

    // Read-modify-write through the byte-level boundary.
    let t = s.begin().unwrap();
    let ids = t.lookup_ids("account", "by-id", &Key::U64(3)).unwrap();
    let bytes = t.get_for_update("account", ids[0]).unwrap();
    let updated = tdb::session::modify_bytes::<TpcbRecord>(s.classes(), &bytes, |r| {
        r.balance += 40;
    })
    .unwrap();
    t.write_back("account", ids[0], &updated).unwrap();
    t.commit(Durability::Durable).unwrap();

    let rt = s.begin_read().unwrap();
    let exact: Vec<u64> = rt
        .exact("account", "by-id", &Key::U64(3))
        .unwrap()
        .iter()
        .map(|o| o.0)
        .collect();
    let bytes = rt.read(tdb::ObjectId(exact[0])).unwrap();
    let balance = with_bytes::<TpcbRecord, i64>(s.classes(), &bytes, |r| r.balance).unwrap();
    let count = rt.count("account").unwrap();
    let scan: Vec<(Key, u64)> = rt
        .scan("account", "by-id")
        .unwrap()
        .into_iter()
        .map(|(k, o)| (k, o.0))
        .collect();
    let range: Vec<(Key, u64)> = rt
        .range(
            "account",
            "by-id",
            Bound::Included(Key::U64(2)),
            Bound::Excluded(Key::U64(6)),
        )
        .unwrap()
        .into_iter()
        .map(|(k, o)| (k, o.0))
        .collect();
    rt.finish().unwrap();
    (exact, balance, count, scan, range)
}

#[test]
fn embedded_and_remote_produce_identical_results() {
    let embedded = open_db(1).session();
    let embedded_out = run_workload(&embedded);

    let (server, remote) = serve(open_db(1).session());
    let remote_out = run_workload(&*remote);

    assert_eq!(embedded_out, remote_out);
    drop(remote);
    server.shutdown();
}

#[test]
fn lock_timeouts_cross_the_wire_retryable() {
    let (server, remote_a) = serve(open_db(1).session());
    let addr = server.local_addr().to_string();
    let remote_b = RemoteDb::connect(&addr, "parity", classes()).unwrap();

    let t = remote_a.begin().unwrap();
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash);
    t.ensure_collection("account", &[spec]).unwrap();
    let oid = t.insert("account", &to_bytes(&TpcbRecord::new(1))).unwrap();
    t.commit(Durability::Durable).unwrap();

    // A holds the exclusive lock; B must time out with a *retryable*
    // LockTimeout whose kind survived the wire.
    let ta = remote_a.begin().unwrap();
    ta.get_for_update("account", oid).unwrap();
    let tb = remote_b.begin().unwrap();
    let err = expect_err(
        tb.get_for_update("account", oid),
        "contended exclusive lock must time out",
    );
    assert_eq!(err.kind(), ErrorKind::LockTimeout);
    assert!(err.is_retryable(), "lock timeout lost retryability: {err}");
    tb.abort().unwrap();
    ta.abort().unwrap();

    drop(remote_a);
    server.shutdown();
}

/// The same operation through both backends must fail with byte-identical
/// structured errors.
fn assert_same_error(embedded: Error, remote: Error) {
    assert_eq!(embedded.kind(), remote.kind());
    assert_eq!(embedded.to_string(), remote.to_string());
    assert_eq!(embedded.is_retryable(), remote.is_retryable());
}

#[test]
fn sharded_backup_gating_is_identical_through_both_backends() {
    let archive = Arc::new(MemArchive::new());
    let secret = Arc::new(MemSecretStore::from_label("parity-backup"));

    // Two shards: every backup/restore entry point must fail the one
    // shard-count gate with the operation name and shard count intact.
    let embedded = EmbeddedSession::with_backup(open_db(2), archive.clone(), secret.clone());
    let emb_full = expect_err(embedded.backup_full(), "sharded backup_full");
    let emb_incr = expect_err(embedded.backup_incremental(), "sharded backup_incremental");
    let emb_restore = expect_err(embedded.restore_latest(), "sharded restore");

    let (server, remote) = serve(EmbeddedSession::with_backup(
        open_db(2),
        archive.clone(),
        secret.clone(),
    ));
    let rem_full = expect_err(remote.backup_full(), "remote backup_full");
    let rem_incr = expect_err(remote.backup_incremental(), "remote backup_incremental");
    let rem_restore = expect_err(remote.restore_latest(), "remote restore");

    // The offline restore has no wire form; it goes through the same gate.
    let from = match Db::restore_latest_from(
        &*archive,
        Options::in_memory()
            .secret_label("parity-backup")
            .classes(classes())
            .extractors(extractors())
            .shards(2),
    ) {
        Err(e) => Error::from(e),
        Ok(_) => panic!("restore_latest_from must refuse two shards"),
    };

    // One structured error: Usage, the shard count, the operation's own
    // name — and, with the name masked, the same message for all four.
    let same_shape = |op: &str, e: &Error| {
        assert_eq!(e.kind(), ErrorKind::Usage, "unexpected: {e}");
        let msg = e.to_string();
        assert!(msg.contains("2 shards"), "shard count missing from: {msg}");
        assert!(msg.contains(op), "operation name missing from: {msg}");
        msg.replace(op, "<op>")
    };
    let shape = same_shape("restore_latest_from", &from);
    for (op, emb, rem) in [
        ("backup_full", emb_full, rem_full),
        ("backup_incremental", emb_incr, rem_incr),
        ("restore_latest", emb_restore, rem_restore),
    ] {
        assert_eq!(same_shape(op, &emb), shape);
        assert_same_error(emb, rem);
    }

    drop(remote);
    server.shutdown();
}

#[test]
fn unsharded_backup_works_remotely_and_restore_stays_offline() {
    let archive = Arc::new(MemArchive::new());
    let secret = Arc::new(MemSecretStore::from_label("parity-backup2"));

    let embedded = EmbeddedSession::with_backup(open_db(1), archive.clone(), secret.clone());
    {
        let t = embedded.begin().unwrap();
        let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash);
        t.ensure_collection("account", &[spec]).unwrap();
        t.insert("account", &to_bytes(&TpcbRecord::new(1))).unwrap();
        t.commit(Durability::Durable).unwrap();
    }
    let emb_name = embedded.backup_full().unwrap();
    let emb_restore = expect_err(embedded.restore_latest(), "live restore");

    let (server, remote) = serve(embedded);
    let rem_name = remote.backup_full().unwrap();
    assert!(!rem_name.is_empty());
    assert_ne!(emb_name, rem_name, "each backup gets a fresh archive name");
    let rem_restore = expect_err(remote.restore_latest(), "remote live restore");
    assert_eq!(rem_restore.kind(), ErrorKind::Usage);
    assert_same_error(emb_restore, rem_restore);

    drop(remote);
    server.shutdown();
}

#[test]
fn remote_proofs_verify_client_side_and_catch_tampering() {
    let (server, remote) = serve(open_db(1).session());

    let t = remote.begin().unwrap();
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash).immutable();
    t.ensure_collection("account", &[spec]).unwrap();
    let oid = t.insert("account", &to_bytes(&TpcbRecord::new(9))).unwrap();
    t.commit(Durability::Durable).unwrap();

    // The verifier is built purely from wire bytes — no server types.
    let anchor_bytes = remote.trust_anchor().unwrap();
    let anchor = tdb::proof::wire::decode_trust_anchor(&anchor_bytes).unwrap();
    let verifier = Verifier::new(anchor);

    let rt = remote.begin_read_proven().unwrap();
    let proven = rt.read_proven(oid).unwrap();
    assert!(proven.value.is_some());
    proven.verify(&verifier).unwrap();

    // A flipped value byte must be caught as tampering.
    let mut forged = proven.clone();
    forged.value.as_mut().unwrap()[0] ^= 0x01;
    let err = expect_err(forged.verify(&verifier), "forgery must fail");
    assert_eq!(err.kind(), ErrorKind::Tamper);

    // Keyed (non-)membership proofs verify too, including provable absence.
    let present = rt.exact_proven("account", "by-id", &Key::U64(9)).unwrap();
    assert_eq!(present.entries.len(), 1);
    present.verify(&verifier).unwrap();
    let absent = rt.exact_proven("account", "by-id", &Key::U64(404)).unwrap();
    assert!(absent.entries.is_empty());
    absent.verify(&verifier).unwrap();

    // Claiming a different id under a real proof must be caught.
    let mut forged = present.clone();
    forged.entries[0].1 = tdb::ObjectId(forged.entries[0].1 .0 + 1);
    let err = expect_err(forged.verify(&verifier), "forged entry list");
    assert_eq!(err.kind(), ErrorKind::Tamper);

    rt.finish().unwrap();
    drop(remote);
    server.shutdown();
}

/// A keyed proof is bound to the query it answers: a server answering the
/// lookup of key 9 with the (valid) absence proof for key 404, or the
/// reverse, is caught on both backends.
#[test]
fn keyed_proofs_for_another_query_are_tamper_on_both_backends() {
    let embedded = open_db(1).session();
    let t = embedded.begin().unwrap();
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash).immutable();
    t.ensure_collection("account", &[spec]).unwrap();
    t.insert("account", &to_bytes(&TpcbRecord::new(9))).unwrap();
    t.commit(Durability::Durable).unwrap();
    let (server, remote) = serve(embedded.db().session());

    for (name, s) in [
        ("embedded", &embedded as &dyn Session),
        ("remote", &*remote),
    ] {
        let anchor = tdb::proof::wire::decode_trust_anchor(&s.trust_anchor().unwrap()).unwrap();
        let verifier = Verifier::new(anchor);
        let rt = s.begin_read_proven().unwrap();
        let mut present = rt.exact_proven("account", "by-id", &Key::U64(9)).unwrap();
        let mut absent = rt.exact_proven("account", "by-id", &Key::U64(404)).unwrap();
        present.verify(&verifier).unwrap();
        absent.verify(&verifier).unwrap();
        std::mem::swap(&mut present.entries, &mut absent.entries);
        std::mem::swap(&mut present.proof, &mut absent.proof);
        for forged in [&present, &absent] {
            let err = expect_err(forged.verify(&verifier), name);
            assert_eq!(err.kind(), ErrorKind::Tamper, "{name}: {err}");
        }
        rt.finish().unwrap();
    }
    drop(remote);
    server.shutdown();
}

#[test]
fn tpcb_driver_runs_unmodified_over_the_wire() {
    let (server, _control) = serve(open_db(1).session());
    let addr = server.local_addr().to_string();

    let mut driver = TdbDriver::over_session(Box::new(
        RemoteDb::connect(&addr, "tpcb", classes()).unwrap(),
    ));
    let cfg = TpcbConfig {
        scale: 0.001, // 100 accounts / 1 teller / 1 branch / 252 history
        transactions: 60,
        threads: 4,
        ..TpcbConfig::default()
    };
    let report = tpcb::run_benchmark_threaded(&mut driver, &cfg);
    assert_eq!(report.transactions, 60);
    assert!(report.avg_response_ms > 0.0);

    // The money-conservation invariant holds through the wire: all
    // transfers deposit the same delta in account, teller, and branch, so
    // branch totals equal account totals.
    let (accounts, _, branches, _) = cfg.sizes();
    let branch_total: i64 = (0..branches).map(|b| driver.branch_balance(b)).sum();
    let account_total: i64 = (0..accounts).map(|a| driver.account_balance(a)).sum();
    assert_eq!(branch_total, account_total);

    // Commits from the 4 remote worker connections flowed through the
    // engine's group commit.
    let stats = driver.session().stats().unwrap();
    assert!(stats.group_size_count > 0);

    server.shutdown();
}

#[test]
fn idle_remote_transactions_are_reaped_under_short_timeouts() {
    // Belt-and-braces for the robustness suite, at the session-API level:
    // an abandoned remote transaction must not block an embedded one
    // forever once the reaper runs.
    let db = open_db(1);
    let server = Server::start(
        db.session(),
        ServerConfig {
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let remote = RemoteDb::connect(&addr, "sloth", classes()).unwrap();
    let t = remote.begin().unwrap();
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash);
    t.ensure_collection("account", &[spec]).unwrap();
    let oid = t.insert("account", &to_bytes(&TpcbRecord::new(1))).unwrap();
    t.commit(Durability::Durable).unwrap();

    // Take the lock remotely, then abandon the handle without finishing.
    let t = remote.begin().unwrap();
    t.get_for_update("account", oid).unwrap();
    std::mem::forget(t); // no abort, no drop-frame: a truly stuck client

    let embedded = db.session();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let t = embedded.begin().unwrap();
        match t.get_for_update("account", oid) {
            Ok(_) => {
                t.commit(Durability::Lazy).unwrap();
                break;
            }
            Err(e) if e.is_retryable() && std::time::Instant::now() < deadline => {
                t.abort().unwrap();
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("reaper never released the abandoned lock: {e}"),
        }
    }
    drop(remote);
    server.shutdown();
}

/// `account`, `teller` and `branch` with one record each (id 1), plus an
/// empty `history`, committed through `s`.
fn seed_transfer_tables(s: &dyn Session) {
    let t = s.begin().unwrap();
    for table in ["account", "teller", "branch", "history"] {
        let unique = table != "history";
        let spec = IndexSpec::new("by-id", "tpcb.id", unique, IndexKind::Hash);
        t.ensure_collection(table, &[spec]).unwrap();
        if unique {
            t.insert(table, &to_bytes(&TpcbRecord::new(1))).unwrap();
        }
    }
    t.commit(Durability::Durable).unwrap();
}

fn collection_count(s: &dyn Session, coll: &str) -> u64 {
    let r = s.begin_read().unwrap();
    let n = r.count(coll).unwrap();
    r.finish().unwrap();
    n
}

fn server_counter(server: &Server, name: &str) -> u64 {
    server.session().db().obs().snapshot().counter(name)
}

/// A failed `write_back` surfaces with the error the embedded backend
/// returns — from the next call of the transaction when the remote
/// backend pipelined it.
#[test]
fn a_queued_write_back_that_fails_surfaces_from_the_next_call() {
    let embedded = open_db(1).session();
    seed_transfer_tables(&embedded);
    let (server, remote) = serve(open_db(1).session());
    seed_transfer_tables(&*remote);

    let mut errors = Vec::new();
    for s in [&embedded as &dyn Session, &*remote] {
        let t = s.begin().unwrap();
        let ids = t.lookup_ids("account", "by-id", &Key::U64(1)).unwrap();
        let bytes = t.get_for_update("account", ids[0]).unwrap();
        let err = match t.write_back("no-such-table", ids[0], &bytes) {
            Err(e) => e,
            // Queued: the next call of the transaction reports it.
            Ok(()) => expect_err(
                t.lookup_ids("teller", "by-id", &Key::U64(1)),
                "the call after a failed write_back",
            ),
        };
        t.abort().unwrap();
        errors.push(err);
    }
    let remote_err = errors.pop().unwrap();
    assert_same_error(errors.pop().unwrap(), remote_err);

    // The connection is still in step: the next transaction works.
    let t = remote.begin().unwrap();
    assert_eq!(
        t.lookup_ids("account", "by-id", &Key::U64(1))
            .unwrap()
            .len(),
        1
    );
    t.commit(Durability::Durable).unwrap();
    drop(remote);
    server.shutdown();
}

/// `abort` reports its own outcome: a queued `write_back`'s error is moot
/// once the transaction is aborted, so both backends abort cleanly and
/// release the transaction's locks.
#[test]
fn an_abort_after_a_failed_queued_write_back_succeeds() {
    let embedded = open_db(1).session();
    seed_transfer_tables(&embedded);
    let (server, remote) = serve(open_db(1).session());
    seed_transfer_tables(&*remote);

    for s in [&embedded as &dyn Session, &*remote] {
        let t = s.begin().unwrap();
        let ids = t.lookup_ids("account", "by-id", &Key::U64(1)).unwrap();
        let bytes = t.get_for_update("account", ids[0]).unwrap();
        let _ = t.write_back("no-such-table", ids[0], &bytes);
        t.abort().unwrap();
        let t = s.begin().unwrap();
        t.get_for_update("account", ids[0]).unwrap();
        t.commit(Durability::Durable).unwrap();
    }
    drop(remote);
    server.shutdown();
}

/// `commit` never rides behind an unanswered request: a transaction whose
/// queued `write_back` failed aborts instead of committing without it.
#[test]
fn a_commit_after_a_failed_queued_write_back_aborts() {
    let (server, remote) = serve(open_db(1).session());
    seed_transfer_tables(&*remote);

    let t = remote.begin().unwrap();
    t.insert("history", &to_bytes(&TpcbRecord::new(7))).unwrap();
    let ids = t.lookup_ids("account", "by-id", &Key::U64(1)).unwrap();
    let bytes = t.get_for_update("account", ids[0]).unwrap();
    let updated = tdb::session::modify_bytes::<TpcbRecord>(remote.classes(), &bytes, |r| {
        r.balance += 99;
    })
    .unwrap();
    t.write_back("account", ids[0], &updated).unwrap();
    t.write_back("no-such-table", ids[0], &updated).unwrap();
    let err = expect_err(
        t.commit(Durability::Durable),
        "commit after a failed write_back",
    );
    assert_eq!(err.kind(), ErrorKind::NotFound, "unexpected: {err}");

    // Nothing of the transaction is visible: no history row, no balance.
    assert_eq!(collection_count(&*remote, "history"), 0);
    let r = remote.begin_read().unwrap();
    let bytes = r.read(ids[0]).unwrap();
    let balance = with_bytes::<TpcbRecord, i64>(remote.classes(), &bytes, |r| r.balance).unwrap();
    assert_eq!(balance, 0);
    r.finish().unwrap();
    // And the lock it held is gone: a new transaction updates the record.
    let t = remote.begin().unwrap();
    t.get_for_update("account", ids[0]).unwrap();
    t.commit(Durability::Durable).unwrap();
    drop(remote);
    server.shutdown();
}

/// Ten thousand `write_back`s in one transaction complete: the queue is
/// sent whenever it would pass its byte bound, so neither end blocks on a
/// full socket buffer.
#[test]
fn ten_thousand_write_backs_in_one_transaction_complete() {
    let (server, remote) = serve(open_db(1).session());
    seed_transfer_tables(&*remote);
    let flushes = server_counter(&server, "server.reply_flushes");
    let request_bytes = server_counter(&server, "server.request_bytes");

    let t = remote.begin().unwrap();
    let ids = t.lookup_ids("account", "by-id", &Key::U64(1)).unwrap();
    let bytes = t.get_for_update("account", ids[0]).unwrap();
    for i in 1..=10_000i64 {
        let updated = tdb::session::modify_bytes::<TpcbRecord>(remote.classes(), &bytes, |r| {
            r.balance = i;
        })
        .unwrap();
        t.write_back("account", ids[0], &updated).unwrap();
    }
    t.commit(Durability::Durable).unwrap();

    let r = remote.begin_read().unwrap();
    let bytes = r.read(ids[0]).unwrap();
    let balance = with_bytes::<TpcbRecord, i64>(remote.classes(), &bytes, |r| r.balance).unwrap();
    assert_eq!(balance, 10_000);
    r.finish().unwrap();

    // At most 64 KiB of requests per write: the queue went out in several.
    let sent = server_counter(&server, "server.request_bytes") - request_bytes;
    let trips = server_counter(&server, "server.reply_flushes") - flushes;
    assert!(
        trips > sent / (64 * 1024),
        "{sent} request bytes in {trips} round trips"
    );
    drop(remote);
    server.shutdown();
}

/// One transfer-shaped transaction — begin, three × (lookup_ids,
/// get_for_update, write_back), insert, commit — is 12 requests in 8 round
/// trips: begin and each write_back ride with the next call.
#[test]
fn a_remote_transfer_takes_eight_round_trips_for_twelve_requests() {
    let (server, remote) = serve(open_db(1).session());
    seed_transfer_tables(&*remote);
    let flushes = server_counter(&server, "server.reply_flushes");
    let requests = server_counter(&server, "server.requests");

    let t = remote.begin().unwrap();
    for table in ["account", "teller", "branch"] {
        let ids = t.lookup_ids(table, "by-id", &Key::U64(1)).unwrap();
        let bytes = t.get_for_update(table, ids[0]).unwrap();
        let updated = tdb::session::modify_bytes::<TpcbRecord>(remote.classes(), &bytes, |r| {
            r.balance += 5;
        })
        .unwrap();
        t.write_back(table, ids[0], &updated).unwrap();
    }
    t.insert("history", &to_bytes(&TpcbRecord::new(1))).unwrap();
    t.commit(Durability::Durable).unwrap();

    assert_eq!(server_counter(&server, "server.requests") - requests, 12);
    assert_eq!(server_counter(&server, "server.reply_flushes") - flushes, 8);
    drop(remote);
    server.shutdown();
}

/// A queued call's failure stays with its transaction, whichever call's
/// round trip brought the reply: here a read transaction's `finish`
/// carries the failed `write_back`. The read transaction is not touched,
/// every later call of the read-write transaction reports the failure —
/// also after the caller ignored it once — and `commit` aborts.
#[test]
fn a_failed_write_back_answered_to_another_transaction_still_stops_the_commit() {
    let (server, remote) = serve(open_db(1).session());
    seed_transfer_tables(&*remote);

    let t = remote.begin().unwrap();
    t.insert("history", &to_bytes(&TpcbRecord::new(7))).unwrap();
    let ids = t.lookup_ids("account", "by-id", &Key::U64(1)).unwrap();
    let bytes = t.get_for_update("account", ids[0]).unwrap();
    let updated = tdb::session::modify_bytes::<TpcbRecord>(remote.classes(), &bytes, |r| {
        r.balance += 99;
    })
    .unwrap();
    t.write_back("account", ids[0], &updated).unwrap();
    t.write_back("no-such-table", ids[0], &updated).unwrap();

    // The read transaction's calls carry the queued write_backs and are
    // answered as usual.
    let r = remote.begin_read().unwrap();
    assert_eq!(r.count("account").unwrap(), 1);
    drop(r);
    let r = remote.begin_read().unwrap();
    r.finish().unwrap();

    let err = expect_err(
        t.lookup_ids("teller", "by-id", &Key::U64(1)),
        "a call after the failed write_back",
    );
    assert_eq!(err.kind(), ErrorKind::NotFound, "unexpected: {err}");
    let err = expect_err(
        t.commit(Durability::Durable),
        "commit after a failed write_back",
    );
    assert_eq!(err.kind(), ErrorKind::NotFound, "unexpected: {err}");

    assert_eq!(collection_count(&*remote, "history"), 0);
    let r = remote.begin_read().unwrap();
    let bytes = r.read(ids[0]).unwrap();
    let balance = with_bytes::<TpcbRecord, i64>(remote.classes(), &bytes, |r| r.balance).unwrap();
    assert_eq!(balance, 0);
    r.finish().unwrap();
    // The failure ended with its transaction: the next one commits.
    let t = remote.begin().unwrap();
    let bytes = t.get_for_update("account", ids[0]).unwrap();
    t.write_back("account", ids[0], &bytes).unwrap();
    t.commit(Durability::Durable).unwrap();
    drop(remote);
    server.shutdown();
}
