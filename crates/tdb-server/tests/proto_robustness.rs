//! Protocol-robustness tests: a hostile or crashing client must never
//! wedge the server or leak a lock.
//!
//! Every scenario ends by proving the server still serves: a fresh,
//! well-behaved client connects and commits. Run under `TDB_WATCHDOG_MS`
//! in CI so a wedged lock or stuck drain turns into a loud dump instead
//! of a silent timeout.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use tdb::session::to_bytes;
use tdb::{
    ClassRegistry, Db, Durability, ErrorKind, ExtractorRegistry, IndexKind, IndexSpec, ObjectId,
    Options, Session,
};
use tdb_client::RemoteDb;
use tdb_server::{Server, ServerConfig};
use tdb_wire::{append_frame, read_frame, write_frame, Hello, Request, Response, PROTOCOL_VERSION};
use tpcb::TpcbRecord;

fn classes() -> ClassRegistry {
    let mut c = ClassRegistry::new();
    tpcb::register_tpcb_classes(&mut c);
    c
}

fn start_server(cfg: ServerConfig) -> (Server, String) {
    let mut ex = ExtractorRegistry::new();
    tpcb::register_tpcb_extractors(&mut ex);
    let db = Db::open(Options::in_memory().classes(classes()).extractors(ex)).unwrap();
    let server = Server::start(db.session(), cfg).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// Create the `account` collection with one record; returns its id.
fn seed_account(addr: &str) -> ObjectId {
    let client = RemoteDb::connect(addr, "seed", classes()).unwrap();
    let t = client.begin().unwrap();
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash).immutable();
    t.ensure_collection("account", &[spec]).unwrap();
    let oid = t.insert("account", &to_bytes(&TpcbRecord::new(1))).unwrap();
    t.commit(Durability::Durable).unwrap();
    oid
}

/// A raw-socket client that speaks frames by hand (for the hostile cases).
struct RawClient {
    stream: TcpStream,
}

impl RawClient {
    fn connect(addr: &str, tenant: &str) -> RawClient {
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
        };
        write_frame(&mut stream, &hello.encode()).unwrap();
        let reply = read_frame(&mut stream).unwrap();
        match Response::decode(&reply).unwrap() {
            Response::Welcome { .. } => {}
            other => panic!("handshake failed: {other:?}"),
        }
        RawClient { stream }
    }

    fn call(&mut self, req: &Request) -> Response {
        write_frame(&mut self.stream, &req.encode()).unwrap();
        Response::decode(&read_frame(&mut self.stream).unwrap()).unwrap()
    }
}

/// Prove the server still answers a well-behaved client end to end.
fn assert_still_serving(addr: &str) {
    let client = RemoteDb::connect(addr, "probe", classes()).unwrap();
    let t = client.begin().unwrap();
    t.commit(Durability::Lazy).unwrap();
}

/// Retry an exclusive-lock acquisition until the leaked lock is released
/// (the previous holder's disconnect aborts its transaction).
fn acquire_with_retry(addr: &str, oid: ObjectId, deadline: Duration) {
    let client = RemoteDb::connect(addr, "acquirer", classes()).unwrap();
    let start = Instant::now();
    loop {
        let t = client.begin().unwrap();
        match t.get_for_update("account", oid) {
            Ok(_) => {
                t.commit(Durability::Lazy).unwrap();
                return;
            }
            Err(e) if e.is_retryable() && start.elapsed() < deadline => {
                let _ = t.abort();
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("lock never released: {e}"),
        }
    }
}

#[test]
fn mid_handshake_disconnects_do_not_wedge() {
    let (server, addr) = start_server(ServerConfig::default());
    // Connect and vanish before the Hello.
    drop(TcpStream::connect(&addr).unwrap());
    // Send half a Hello frame and vanish.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(&[9, 0, 0, 0, b'T', b'D']).unwrap();
        drop(s);
    }
    // Garbage magic in a complete frame.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        write_frame(&mut s, b"NOTMAGIC__").unwrap();
        // Server drops us without a reply; either EOF or reset is fine.
        let _ = read_frame(&mut s);
    }
    assert_still_serving(&addr);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_refused_with_an_error() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut raw = RawClient::connect(&addr, "hostile");
    // A 4 GiB frame announcement: the server must answer with a Codec
    // error and hang up rather than trying to buffer it.
    raw.stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.stream.flush().unwrap();
    let reply = read_frame(&mut raw.stream).unwrap();
    match Response::decode(&reply).unwrap() {
        Response::Err { kind, message } => {
            assert_eq!(kind, ErrorKind::Codec);
            assert!(message.contains("exceeds"), "unexpected message: {message}");
        }
        other => panic!("expected a Codec error, got {other:?}"),
    }
    // The connection is dead afterwards (unsyncable stream)...
    assert!(read_frame(&mut raw.stream).is_err());
    // ...but the server is not.
    assert_still_serving(&addr);
    server.shutdown();
}

#[test]
fn an_oversized_frame_behind_pipelined_requests_is_answered_after_them() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut raw = RawClient::connect(&addr, "hostile");
    // Two well-formed requests and then an oversized length prefix, all in
    // one write: the replies to the two are buffered when the bad prefix
    // is read, and must still go out — first, and before the hang-up.
    let mut batch = Vec::new();
    append_frame(&mut batch, &Request::Begin.encode()).unwrap();
    append_frame(&mut batch, &Request::Ping.encode()).unwrap();
    batch.extend_from_slice(&u32::MAX.to_le_bytes());
    raw.stream.write_all(&batch).unwrap();
    for what in ["begin", "ping"] {
        let reply = Response::decode(&read_frame(&mut raw.stream).unwrap()).unwrap();
        assert_eq!(reply, Response::Ok, "reply to {what}");
    }
    match Response::decode(&read_frame(&mut raw.stream).unwrap()).unwrap() {
        Response::Err { kind, message } => {
            assert_eq!(kind, ErrorKind::Codec);
            assert!(message.contains("exceeds"), "unexpected message: {message}");
        }
        other => panic!("expected a Codec error, got {other:?}"),
    }
    assert!(read_frame(&mut raw.stream).is_err());
    assert_still_serving(&addr);
    server.shutdown();
}

#[test]
fn truncated_frame_kills_only_that_connection() {
    let (server, addr) = start_server(ServerConfig::default());
    let mut raw = RawClient::connect(&addr, "hostile");
    // Announce 100 bytes, send 3, vanish.
    raw.stream.write_all(&100u32.to_le_bytes()).unwrap();
    raw.stream.write_all(&[1, 2, 3]).unwrap();
    drop(raw);
    assert_still_serving(&addr);
    server.shutdown();
}

#[test]
fn killed_client_mid_commit_releases_locks_and_server_keeps_serving() {
    let (server, addr) = start_server(ServerConfig::default());
    let oid = seed_account(&addr);

    // The victim takes an exclusive lock, fires a Commit request, and is
    // killed before reading the response.
    let mut victim = RawClient::connect(&addr, "victim");
    assert!(matches!(victim.call(&Request::Begin), Response::Ok));
    assert!(matches!(
        victim.call(&Request::GetForUpdate {
            coll: "account".into(),
            oid,
        }),
        Response::Bytes(_)
    ));
    write_frame(
        &mut victim.stream,
        &Request::Commit(Durability::Durable).encode(),
    )
    .unwrap();
    victim.stream.shutdown(Shutdown::Both).unwrap();
    drop(victim);

    // Whichever way the race went (commit applied or connection torn down
    // first), the lock must come free and the server must keep serving.
    acquire_with_retry(&addr, oid, Duration::from_secs(10));
    assert_still_serving(&addr);

    // Same, but killed with the transaction still open (no commit sent):
    // the server must abort it on disconnect.
    let mut victim = RawClient::connect(&addr, "victim");
    assert!(matches!(victim.call(&Request::Begin), Response::Ok));
    assert!(matches!(
        victim.call(&Request::GetForUpdate {
            coll: "account".into(),
            oid,
        }),
        Response::Bytes(_)
    ));
    victim.stream.shutdown(Shutdown::Both).unwrap();
    drop(victim);

    acquire_with_retry(&addr, oid, Duration::from_secs(10));
    assert_still_serving(&addr);

    let snap = server.session().db().obs().snapshot();
    let mid_txn = snap
        .counters
        .get("server.disconnects_mid_txn")
        .copied()
        .unwrap_or(0);
    assert!(mid_txn >= 1, "disconnect-mid-txn not counted: {mid_txn}");
    server.shutdown();
}

#[test]
fn admission_control_rejects_with_structured_usage_errors() {
    let cfg = ServerConfig {
        max_sessions: 2,
        max_sessions_per_tenant: 1,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(cfg);

    // Per-tenant cap: second session of the same tenant is refused.
    let _a = RemoteDb::connect(&addr, "tenant-a", classes()).unwrap();
    let err = RemoteDb::connect(&addr, "tenant-a", classes())
        .err()
        .expect("second tenant-a session must be refused");
    assert_eq!(err.kind(), ErrorKind::Usage);
    assert!(
        err.to_string().contains("admission") && err.to_string().contains("tenant-a"),
        "unexpected admission error: {err}"
    );

    // Global cap: a third session (fresh tenant) hits the server-wide cap.
    let _b = RemoteDb::connect(&addr, "tenant-b", classes()).unwrap();
    let err = RemoteDb::connect(&addr, "tenant-c", classes())
        .err()
        .expect("session past the global cap must be refused");
    assert_eq!(err.kind(), ErrorKind::Usage);
    assert!(
        err.to_string().contains("session cap"),
        "unexpected admission error: {err}"
    );

    let snap = server.session().db().obs().snapshot();
    assert!(snap.counter("server.admission_rejections") >= 2);
    server.shutdown();
}

#[test]
fn per_tenant_byte_quota_refuses_without_executing() {
    let cfg = ServerConfig {
        max_inflight_bytes_per_tenant: 64,
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(cfg);
    let client = RemoteDb::connect(&addr, "greedy", classes()).unwrap();

    let t = client.begin().unwrap();
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash);
    t.ensure_collection("account", &[spec]).unwrap();
    // This insert's frame is far over the 64-byte quota: refused with a
    // structured Usage error, not executed.
    let err = t
        .insert("account", &to_bytes(&TpcbRecord::new(7)))
        .unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Usage);
    assert!(
        err.to_string().contains("quota") && err.to_string().contains("greedy"),
        "unexpected quota error: {err}"
    );
    // Small requests on the same connection still work.
    t.commit(Durability::Lazy).unwrap();

    let snap = server.session().db().obs().snapshot();
    assert!(snap.counter("server.quota_rejections") >= 1);
    server.shutdown();
}

#[test]
fn idle_sessions_are_reaped_and_their_locks_released() {
    let cfg = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let (server, addr) = start_server(cfg);
    let oid = seed_account(&addr);

    // Take an exclusive lock, then go silent past the idle timeout.
    let mut idler = RawClient::connect(&addr, "idler");
    assert!(matches!(idler.call(&Request::Begin), Response::Ok));
    assert!(matches!(
        idler.call(&Request::GetForUpdate {
            coll: "account".into(),
            oid,
        }),
        Response::Bytes(_)
    ));
    std::thread::sleep(Duration::from_millis(400));

    // The reaper severed the idler; its transaction aborted, so the lock
    // is (or shortly will be) free.
    acquire_with_retry(&addr, oid, Duration::from_secs(10));

    let snap = server.session().db().obs().snapshot();
    assert!(
        snap.counter("server.idle_reaped") >= 1,
        "idle reap not counted"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_then_refuses_connections() {
    let (server, addr) = start_server(ServerConfig {
        drain_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let oid = seed_account(&addr);

    // A client sits idle with no open transaction; shutdown must not hang
    // on it.
    let _idle = RemoteDb::connect(&addr, "idle", classes()).unwrap();

    // Commits racing with shutdown either complete or fail with a
    // connection error — never hang.
    let addr2 = addr.clone();
    let racer = std::thread::spawn(move || {
        let client = match RemoteDb::connect(&addr2, "racer", classes()) {
            Ok(c) => c,
            Err(_) => return,
        };
        for _ in 0..100 {
            let t = match client.begin() {
                Ok(t) => t,
                Err(_) => return,
            };
            if t.get_for_update("account", oid).is_err() {
                return;
            }
            if t.commit(Durability::Durable).is_err() {
                return;
            }
        }
    });
    std::thread::sleep(Duration::from_millis(30));

    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown hung: {:?}",
        started.elapsed()
    );
    racer.join().unwrap();

    assert!(
        RemoteDb::connect(&addr, "late", classes()).is_err(),
        "server still accepting after shutdown"
    );
}
