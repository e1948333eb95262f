//! The TDB network server: a multi-tenant TCP front end over an embedded
//! [`tdb::Db`].
//!
//! Each accepted connection becomes a session: a dedicated thread that
//! forks its own [`tdb::Session`] handle off the shared
//! [`EmbeddedSession`] and answers `tdb-wire` request frames one by one,
//! in order. Requests are read through a buffered reader; replies collect
//! in one out-buffer that is written only once no further request is
//! already buffered, so the replies to requests a pipelining client sent
//! together leave in one write (`server.reply_flushes` counts those
//! writes: one per round trip).
//!
//! Concurrent sessions' commits meet in the chunk store's leader/follower
//! group commit, so the server inherits the commit batching the embedded
//! engine already has — no extra queueing layer.
//!
//! Operational guardrails:
//!
//! * **Admission control** — a global session cap and a per-tenant cap,
//!   checked at handshake; rejections are structured `Usage` errors and
//!   counted under `server.admission_rejections`.
//! * **Per-tenant byte quotas** — request bytes in flight per tenant are
//!   capped; over-quota requests are refused (not executed) with a
//!   `Usage` error and counted under `server.quota_rejections`.
//! * **Idle reaping** — a reaper thread severs sockets idle past the
//!   configured timeout. The connection thread then unwinds, dropping any
//!   open transaction, which aborts it and releases its 2PL locks.
//! * **Graceful shutdown** — [`Server::shutdown`] stops admitting,
//!   wakes idle readers with a half-close so in-flight commits drain,
//!   then severs stragglers at the drain deadline.
//!
//! All server metrics live in the database's own observability registry
//! under the `server.` prefix, so they show up in the same obs snapshots
//! and diagnostic dumps as engine metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind as IoKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tdb::obs::{Counter, Gauge};
use tdb::session::{EmbeddedSession, SResult};
use tdb::{Error, ErrorKind, Session, SessionRead, SessionTxn};
use tdb_wire::{
    append_frame, read_frame, write_frame, Hello, Request, Response, WireError, MAX_FRAME,
    PROTOCOL_VERSION,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Global cap on concurrently open sessions.
    pub max_sessions: usize,
    /// Per-tenant cap on concurrently open sessions.
    pub max_sessions_per_tenant: usize,
    /// Per-tenant cap on request bytes admitted but not yet answered.
    pub max_inflight_bytes_per_tenant: u64,
    /// Sever connections with no traffic for this long.
    pub idle_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight work to drain
    /// before severing the remaining connections.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_sessions: 1024,
            max_sessions_per_tenant: 512,
            max_inflight_bytes_per_tenant: 64 * 1024 * 1024,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// `server.*` metrics, registered in the database's obs registry.
struct ServerObs {
    sessions_opened: Counter,
    sessions_closed: Counter,
    sessions_active: Gauge,
    admission_rejections: Counter,
    quota_rejections: Counter,
    requests: Counter,
    request_bytes: Counter,
    response_bytes: Counter,
    reply_flushes: Counter,
    errors: Counter,
    idle_reaped: Counter,
    disconnects_mid_txn: Counter,
}

impl ServerObs {
    fn new(reg: &tdb::obs::Registry) -> ServerObs {
        ServerObs {
            sessions_opened: reg.counter("server.sessions_opened"),
            sessions_closed: reg.counter("server.sessions_closed"),
            sessions_active: reg.gauge("server.sessions_active"),
            admission_rejections: reg.counter("server.admission_rejections"),
            quota_rejections: reg.counter("server.quota_rejections"),
            requests: reg.counter("server.requests"),
            request_bytes: reg.counter("server.request_bytes"),
            response_bytes: reg.counter("server.response_bytes"),
            reply_flushes: reg.counter("server.reply_flushes"),
            errors: reg.counter("server.errors"),
            idle_reaped: reg.counter("server.idle_reaped"),
            disconnects_mid_txn: reg.counter("server.disconnects_mid_txn"),
        }
    }
}

#[derive(Default)]
struct TenantState {
    sessions: usize,
    inflight_bytes: u64,
}

/// What the reaper and shutdown need to reach a live connection.
struct ConnHandle {
    stream: TcpStream,
    last_activity_ms: Arc<AtomicU64>,
}

struct ServerInner {
    session: EmbeddedSession,
    cfg: ServerConfig,
    obs: ServerObs,
    started: Instant,
    stopping: AtomicBool,
    draining: AtomicBool,
    active: Mutex<HashMap<u64, ConnHandle>>,
    tenants: Mutex<HashMap<String, TenantState>>,
    next_session: AtomicU64,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ServerInner {
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }
}

/// A running TDB server. Dropping it without [`Server::shutdown`] leaves
/// the listener threads running until process exit.
pub struct Server {
    inner: Arc<ServerInner>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    reaper_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. The embedded session supplies both the
    /// database and (optionally) the backup wiring that remote
    /// `backup_*` requests run through.
    pub fn start(session: EmbeddedSession, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let obs = ServerObs::new(&session.db().obs());
        let inner = Arc::new(ServerInner {
            session,
            cfg,
            obs,
            started: Instant::now(),
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            active: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            conn_threads: Mutex::new(Vec::new()),
        });
        let accept_inner = inner.clone();
        let accept_thread = std::thread::Builder::new()
            .name("tdb-server-accept".to_string())
            .spawn(move || accept_loop(&accept_inner, &listener))?;
        let reaper_inner = inner.clone();
        let reaper_thread = std::thread::Builder::new()
            .name("tdb-server-reaper".to_string())
            .spawn(move || reaper_loop(&reaper_inner))?;
        Ok(Server {
            inner,
            local_addr,
            accept_thread: Some(accept_thread),
            reaper_thread: Some(reaper_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The embedded session the server fronts.
    pub fn session(&self) -> &EmbeddedSession {
        &self.inner.session
    }

    /// Stop accepting, drain in-flight requests, and join every thread.
    ///
    /// Sessions blocked reading their next request get a half-close and
    /// unwind cleanly; sessions mid-request finish and send their reply
    /// (commits included) before their thread notices the drain flag.
    /// Whatever is still alive at the drain deadline is severed.
    pub fn shutdown(mut self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.stopping.store(true, Ordering::SeqCst);
        {
            let active = self.inner.active.lock().expect("active map poisoned");
            for conn in active.values() {
                // Half-close: wakes a blocked read with EOF, but a thread
                // mid-request can still write its reply.
                let _ = conn.stream.shutdown(Shutdown::Read);
            }
        }
        let deadline = Instant::now() + self.inner.cfg.drain_timeout;
        loop {
            if self
                .inner
                .active
                .lock()
                .expect("active map poisoned")
                .is_empty()
            {
                break;
            }
            if Instant::now() >= deadline {
                let active = self.inner.active.lock().expect("active map poisoned");
                for conn in active.values() {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.reaper_thread.take() {
            let _ = t.join();
        }
        let threads = std::mem::take(
            &mut *self
                .inner
                .conn_threads
                .lock()
                .expect("thread list poisoned"),
        );
        for t in threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(inner: &Arc<ServerInner>, listener: &TcpListener) {
    while !inner.stopping.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_inner = inner.clone();
                let handle = std::thread::Builder::new()
                    .name("tdb-server-conn".to_string())
                    .spawn(move || serve_conn(&conn_inner, stream));
                match handle {
                    Ok(h) => inner
                        .conn_threads
                        .lock()
                        .expect("thread list poisoned")
                        .push(h),
                    Err(_) => inner.obs.errors.add(1),
                }
            }
            Err(e) if e.kind() == IoKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                inner.obs.errors.add(1);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn reaper_loop(inner: &Arc<ServerInner>) {
    while !inner.stopping.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        let idle_ms = inner.cfg.idle_timeout.as_millis() as u64;
        let now = inner.now_ms();
        let active = inner.active.lock().expect("active map poisoned");
        for conn in active.values() {
            let last = conn.last_activity_ms.load(Ordering::Acquire);
            if now.saturating_sub(last) > idle_ms {
                // Severing the socket makes the connection thread's next
                // read fail; it unwinds, dropping (and thus aborting) any
                // open transaction, which releases its 2PL locks.
                let _ = conn.stream.shutdown(Shutdown::Both);
                inner.obs.idle_reaped.add(1);
            }
        }
    }
}

fn admit(inner: &ServerInner, tenant: &str) -> Result<(), Error> {
    let mut tenants = inner.tenants.lock().expect("tenant map poisoned");
    let open: usize = tenants.values().map(|t| t.sessions).sum();
    if open >= inner.cfg.max_sessions {
        return Err(Error::new(
            ErrorKind::Usage,
            format!("admission: server at its session cap ({open} open)"),
        ));
    }
    let state = tenants.entry(tenant.to_string()).or_default();
    if state.sessions >= inner.cfg.max_sessions_per_tenant {
        return Err(Error::new(
            ErrorKind::Usage,
            format!(
                "admission: tenant '{tenant}' at its session cap ({} open)",
                state.sessions
            ),
        ));
    }
    state.sessions += 1;
    Ok(())
}

fn claim_quota(inner: &ServerInner, tenant: &str, len: u64) -> Result<(), Error> {
    let mut tenants = inner.tenants.lock().expect("tenant map poisoned");
    let state = tenants.entry(tenant.to_string()).or_default();
    let cap = inner.cfg.max_inflight_bytes_per_tenant;
    if state.inflight_bytes + len > cap {
        return Err(Error::new(
            ErrorKind::Usage,
            format!(
                "quota: tenant '{tenant}' has {} request bytes in flight, cap {cap}",
                state.inflight_bytes
            ),
        ));
    }
    state.inflight_bytes += len;
    Ok(())
}

fn release_quota(inner: &ServerInner, tenant: &str, len: u64) {
    let mut tenants = inner.tenants.lock().expect("tenant map poisoned");
    if let Some(state) = tenants.get_mut(tenant) {
        state.inflight_bytes = state.inflight_bytes.saturating_sub(len);
    }
}

fn serve_conn(inner: &Arc<ServerInner>, stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(&stream);

    // Handshake: one Hello frame before anything else.
    let hello = match read_frame(&mut reader).and_then(|f| Hello::decode(&f)) {
        Ok(h) => h,
        Err(_) => {
            // Mid-handshake disconnect or garbage: nothing registered yet,
            // nothing to clean up.
            inner.obs.errors.add(1);
            return;
        }
    };
    if hello.version != PROTOCOL_VERSION {
        let resp = Response::Err {
            kind: ErrorKind::Usage,
            message: format!(
                "client speaks protocol v{}, server v{PROTOCOL_VERSION}",
                hello.version
            ),
        };
        let _ = write_frame(&mut &stream, &resp.encode());
        return;
    }
    if inner.draining.load(Ordering::SeqCst) {
        let resp = Response::Err {
            kind: ErrorKind::Usage,
            message: "server is shutting down".to_string(),
        };
        let _ = write_frame(&mut &stream, &resp.encode());
        return;
    }
    if let Err(e) = admit(inner, &hello.tenant) {
        inner.obs.admission_rejections.add(1);
        let _ = write_frame(&mut &stream, &Response::from_error(&e).encode());
        return;
    }

    // Admitted: register with the reaper/shutdown machinery.
    let session_id = inner.next_session.fetch_add(1, Ordering::SeqCst);
    let last_activity = Arc::new(AtomicU64::new(inner.now_ms()));
    if let Ok(clone) = stream.try_clone() {
        inner.active.lock().expect("active map poisoned").insert(
            session_id,
            ConnHandle {
                stream: clone,
                last_activity_ms: last_activity.clone(),
            },
        );
    }
    inner.obs.sessions_opened.add(1);
    inner.obs.sessions_active.add(1);

    let welcome = Response::Welcome {
        version: PROTOCOL_VERSION,
        session: session_id,
    };
    if write_frame(&mut &stream, &welcome.encode()).is_ok() {
        match inner.session.fork() {
            Ok(session) => {
                let mut conn = Conn {
                    stream: &stream,
                    reader,
                    out: Vec::new(),
                };
                request_loop(inner, &mut conn, &*session, &hello.tenant, &last_activity);
                // Whatever way the loop ended, replies it answered go out.
                if !conn.out.is_empty() {
                    let _ = conn.flush(inner);
                }
            }
            Err(e) => {
                let _ = write_frame(&mut &stream, &Response::from_error(&e).encode());
            }
        }
    }

    // Unregister.
    inner
        .active
        .lock()
        .expect("active map poisoned")
        .remove(&session_id);
    {
        let mut tenants = inner.tenants.lock().expect("tenant map poisoned");
        if let Some(state) = tenants.get_mut(&hello.tenant) {
            state.sessions = state.sessions.saturating_sub(1);
            if state.sessions == 0 && state.inflight_bytes == 0 {
                tenants.remove(&hello.tenant);
            }
        }
    }
    inner.obs.sessions_closed.add(1);
    inner.obs.sessions_active.add(-1);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Reply bytes an idle connection keeps buffer room for.
const OUT_RETAIN: usize = 64 * 1024;

/// One admitted connection: requests read through a buffer, replies
/// collected in `out` until the end of the round trip.
struct Conn<'a> {
    stream: &'a TcpStream,
    reader: BufReader<&'a TcpStream>,
    /// Reply frames not sent yet.
    out: Vec<u8>,
}

impl Conn<'_> {
    /// Send the replies not sent yet in one write: the end of one round
    /// trip.
    fn flush(&mut self, inner: &ServerInner) -> std::io::Result<()> {
        inner.obs.reply_flushes.add(1);
        let sent = self.stream.write_all(&self.out);
        self.out.clear();
        self.out.shrink_to(OUT_RETAIN);
        sent
    }
}

fn request_loop(
    inner: &ServerInner,
    conn: &mut Conn<'_>,
    session: &dyn Session,
    tenant: &str,
    last_activity: &AtomicU64,
) {
    // Transaction state lives on this thread's stack: dropping it (on any
    // exit path, including a severed socket) aborts the transaction and
    // releases its locks.
    let mut txn: Option<Box<dyn SessionTxn + '_>> = None;
    let mut read: Option<Box<dyn SessionRead + '_>> = None;

    loop {
        let frame = match read_frame(&mut conn.reader) {
            Ok(f) => f,
            Err(WireError::FrameTooLarge(n)) => {
                // We have not consumed the oversized payload, so the
                // stream cannot be resynchronised: answer and hang up.
                // Replies to the requests before it go out first.
                let resp = Response::Err {
                    kind: ErrorKind::Codec,
                    message: format!("frame length {n} exceeds the {MAX_FRAME}-byte cap"),
                };
                let _ = append_frame(&mut conn.out, &resp.encode());
                inner.obs.errors.add(1);
                break;
            }
            Err(_) => {
                if txn.is_some() {
                    inner.obs.disconnects_mid_txn.add(1);
                }
                break;
            }
        };
        last_activity.store(inner.now_ms(), Ordering::Release);
        inner.obs.requests.add(1);
        inner.obs.request_bytes.add(frame.len() as u64);

        let quota_len = frame.len() as u64;
        let response = match claim_quota(inner, tenant, quota_len) {
            Err(e) => {
                inner.obs.quota_rejections.add(1);
                Response::from_error(&e)
            }
            Ok(()) => {
                let resp = match Request::decode(&frame) {
                    Ok(req) => dispatch(session, &mut txn, &mut read, req),
                    Err(e) => Response::from_error(&Error::from(e)),
                };
                release_quota(inner, tenant, quota_len);
                resp
            }
        };
        if matches!(response, Response::Err { .. }) {
            inner.obs.errors.add(1);
        }
        let encoded = response.encode();
        inner.obs.response_bytes.add(encoded.len() as u64);
        // A request already buffered behind this one was sent with it:
        // answer that too before writing, so the client gets all its
        // replies in one segment.
        let sent = append_frame(&mut conn.out, &encoded).and_then(|()| {
            if conn.reader.buffer().is_empty() {
                conn.flush(inner)?;
            }
            Ok(())
        });
        if sent.is_err() {
            if txn.is_some() {
                inner.obs.disconnects_mid_txn.add(1);
            }
            break;
        }
        last_activity.store(inner.now_ms(), Ordering::Release);

        if inner.draining.load(Ordering::SeqCst) {
            break;
        }
    }
}

fn no_txn() -> Error {
    Error::new(ErrorKind::Usage, "no open read-write transaction")
}

fn no_read() -> Error {
    Error::new(ErrorKind::Usage, "no open read transaction")
}

fn ok_or_err(r: SResult<()>) -> Response {
    match r {
        Ok(()) => Response::Ok,
        Err(e) => Response::from_error(&e),
    }
}

fn map_resp<T>(r: SResult<T>, f: impl FnOnce(T) -> Response) -> Response {
    match r {
        Ok(v) => f(v),
        Err(e) => Response::from_error(&e),
    }
}

fn dispatch<'s>(
    session: &'s dyn Session,
    txn: &mut Option<Box<dyn SessionTxn + 's>>,
    read: &mut Option<Box<dyn SessionRead + 's>>,
    req: Request,
) -> Response {
    match req {
        Request::Ping => Response::Ok,

        Request::Begin => {
            if txn.is_some() {
                return Response::from_error(&Error::new(
                    ErrorKind::Usage,
                    "a read-write transaction is already open on this session",
                ));
            }
            match session.begin() {
                Ok(t) => {
                    *txn = Some(t);
                    Response::Ok
                }
                Err(e) => Response::from_error(&e),
            }
        }
        Request::Commit(durability) => match txn.take() {
            Some(t) => ok_or_err(t.commit(durability)),
            None => Response::from_error(&no_txn()),
        },
        Request::Abort => match txn.take() {
            Some(t) => ok_or_err(t.abort()),
            None => Response::from_error(&no_txn()),
        },
        Request::EnsureCollection { coll, specs } => match txn.as_deref() {
            Some(t) => ok_or_err(t.ensure_collection(&coll, &specs)),
            None => Response::from_error(&no_txn()),
        },
        Request::Insert { coll, bytes } => match txn.as_deref() {
            Some(t) => map_resp(t.insert(&coll, &bytes), Response::Id),
            None => Response::from_error(&no_txn()),
        },
        Request::LookupIds { coll, index, key } => match txn.as_deref() {
            Some(t) => map_resp(t.lookup_ids(&coll, &index, &key), Response::Ids),
            None => Response::from_error(&no_txn()),
        },
        Request::TxnRead { coll, oid } => match txn.as_deref() {
            Some(t) => map_resp(t.read(&coll, oid), Response::Bytes),
            None => Response::from_error(&no_txn()),
        },
        Request::GetForUpdate { coll, oid } => match txn.as_deref() {
            Some(t) => map_resp(t.get_for_update(&coll, oid), Response::Bytes),
            None => Response::from_error(&no_txn()),
        },
        Request::WriteBack { coll, oid, bytes } => match txn.as_deref() {
            Some(t) => ok_or_err(t.write_back(&coll, oid, &bytes)),
            None => Response::from_error(&no_txn()),
        },

        Request::BeginRead => {
            if read.is_some() {
                return Response::from_error(&Error::new(
                    ErrorKind::Usage,
                    "a read transaction is already open on this session",
                ));
            }
            match session.begin_read() {
                Ok(r) => {
                    *read = Some(r);
                    Response::Ok
                }
                Err(e) => Response::from_error(&e),
            }
        }
        Request::BeginReadProven => {
            if read.is_some() {
                return Response::from_error(&Error::new(
                    ErrorKind::Usage,
                    "a read transaction is already open on this session",
                ));
            }
            match session.begin_read_proven() {
                Ok(r) => {
                    *read = Some(r);
                    Response::Ok
                }
                Err(e) => Response::from_error(&e),
            }
        }
        Request::FinishRead => match read.take() {
            Some(r) => ok_or_err(r.finish()),
            None => Response::from_error(&no_read()),
        },
        Request::RCommitSeq => match read.as_deref() {
            Some(r) => map_resp(r.commit_seq(), Response::Count),
            None => Response::from_error(&no_read()),
        },
        Request::RCount { coll } => match read.as_deref() {
            Some(r) => map_resp(r.count(&coll), Response::Count),
            None => Response::from_error(&no_read()),
        },
        Request::RExact { coll, index, key } => match read.as_deref() {
            Some(r) => map_resp(r.exact(&coll, &index, &key), Response::Ids),
            None => Response::from_error(&no_read()),
        },
        Request::RScan { coll, index } => match read.as_deref() {
            Some(r) => map_resp(r.scan(&coll, &index), Response::Entries),
            None => Response::from_error(&no_read()),
        },
        Request::RRange {
            coll,
            index,
            min,
            max,
        } => match read.as_deref() {
            Some(r) => map_resp(r.range(&coll, &index, min, max), Response::Entries),
            None => Response::from_error(&no_read()),
        },
        Request::RGet { oid } => match read.as_deref() {
            Some(r) => map_resp(r.read(oid), Response::Bytes),
            None => Response::from_error(&no_read()),
        },
        Request::RReadProven { oid } => match read.as_deref() {
            Some(r) => map_resp(r.read_proven(oid), |p| Response::ProvenBytes {
                value: p.value,
                commit_seq: p.commit_seq,
                proof: p.proof,
            }),
            None => Response::from_error(&no_read()),
        },
        Request::RExactProven { coll, index, key } => match read.as_deref() {
            Some(r) => map_resp(r.exact_proven(&coll, &index, &key), |p| {
                Response::ProvenEntries {
                    entries: p.entries,
                    proof: p.proof,
                }
            }),
            None => Response::from_error(&no_read()),
        },

        Request::TrustAnchor => map_resp(session.trust_anchor(), Response::Bytes),
        Request::Stats => map_resp(session.stats(), Response::Stats),
        Request::Checkpoint => ok_or_err(session.checkpoint()),
        Request::BackupFull => map_resp(session.backup_full(), |s| Response::Bytes(s.into_bytes())),
        Request::BackupIncremental => map_resp(session.backup_incremental(), |s| {
            Response::Bytes(s.into_bytes())
        }),
        Request::RestoreLatest => ok_or_err(session.restore_latest()),
    }
}
