//! The TDB network client: a [`tdb::Session`] backend over TCP.
//!
//! [`RemoteDb`] speaks the `tdb-wire` protocol to a `tdb-server`. It
//! implements the same [`Session`] trait as the embedded backend, so any
//! code written against `dyn Session` — the examples, the TPC-B driver —
//! runs against a server unmodified.
//!
//! One connection is one session is one conversation: at most one open
//! read-write and one open read-only transaction, and replies in request
//! order. Concurrency comes from [`Session::fork`], which opens a new
//! connection under the same tenant.
//!
//! # Pipelining
//!
//! A call whose only reply is `Ok` and that a later call of the same
//! transaction is certain to follow — `begin`, `begin_read`,
//! `begin_read_proven`, `ensure_collection`, `write_back` — is not sent on
//! its own. It returns `Ok` at once and its request is queued; the next
//! call sends the queued requests and its own in one write and reads
//! their replies first. A queued call's error belongs to its transaction
//! and stays with it until it ends: every later call of that transaction
//! returns it instead of its own result, while calls of the other
//! transaction and of the session are not touched. So a remote backend
//! reports a failed `write_back` from a later call of the same
//! transaction:
//!
//! * `commit` is never sent behind an unanswered request. With requests
//!   queued it first sends them alone and reads their replies; if a call
//!   of the transaction failed — whichever call's round trip brought the
//!   reply — it aborts the transaction and returns that error, so a
//!   transaction with a failed queued call never commits.
//! * `abort` reports the abort's own outcome: a queued call's error is
//!   moot once the transaction is rolled back, as it is embedded.
//! * The queue is sent before it would pass 64 KiB of request bytes, so a
//!   long `write_back` loop never fills both socket buffers.
//! * A second `begin` (or `begin_read`) while a handle of the same kind
//!   is out fails at once, locally, so no call can run in another
//!   transaction than its caller's.
//!
//! A TPC-B transfer (`begin`, three × `lookup_ids` → `get_for_update` →
//! `write_back`, `insert`, `commit`) thus costs 8 round trips for its 12
//! requests.
//!
//! Errors arrive as the structured `(ErrorKind, message)` pair, so
//! [`tdb::Error::is_retryable`] works
//! exactly as it does embedded; proofs arrive as `tdb-proof` wire bytes
//! and verify against a wire-decoded trust anchor with no server types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tdb::session::{ProvenBytes, ProvenEntries, SResult, SessionStats};
use tdb::{
    ClassRegistry, Durability, Error, ErrorKind, IndexSpec, Key, ObjectId, Session, SessionRead,
    SessionTxn,
};
use tdb_wire::{append_frame, read_frame, write_frame, Hello, Request, Response, PROTOCOL_VERSION};

/// Queued request bytes are sent before they would pass this. The replies
/// to queued calls are small `Ok` frames no longer than the requests, so
/// this also bounds what the server writes while the client is still
/// writing: well inside the socket buffers of both ends.
const QUEUE_LIMIT: usize = 64 * 1024;

fn io_err(e: impl std::fmt::Display) -> Error {
    Error::new(ErrorKind::Io, e.to_string())
}

/// The transaction a queued call belongs to: its error is kept for that
/// transaction's calls and never handed to another's.
#[derive(Clone, Copy)]
enum Owner {
    Txn,
    Read,
}

fn expect_ok(reply: Response) -> SResult<()> {
    match reply {
        Response::Ok => Ok(()),
        other => Err(other.into_error()),
    }
}

struct Conn {
    /// The socket, read through a buffer; writes go to `get_ref()`.
    reader: BufReader<TcpStream>,
    /// Frames of queued calls, not sent yet.
    queued: Vec<u8>,
    /// The owners of the queued calls whose replies are not read yet, in
    /// order.
    owed: Vec<Owner>,
    /// The first failed queued call of the open read-write transaction,
    /// kept until that transaction ends.
    txn_failed: Option<Response>,
    /// The failed queued call (`begin_read`) of the open read-only
    /// transaction, kept until that transaction ends.
    read_failed: Option<Response>,
    /// Set when a wire-level failure poisons the conversation: request and
    /// response framing can no longer be trusted to line up.
    broken: bool,
}

impl Conn {
    /// Send the queued frames and `req`'s, if any, in one write.
    fn send(&mut self, req: Option<&Request>) -> tdb_wire::Result<()> {
        if let Some(req) = req {
            append_frame(&mut self.queued, &req.encode())?;
        }
        self.reader.get_ref().write_all(&self.queued)?;
        self.queued.clear();
        self.queued.shrink_to(QUEUE_LIMIT);
        Ok(())
    }

    fn failed(&mut self, owner: Owner) -> &mut Option<Response> {
        match owner {
            Owner::Txn => &mut self.txn_failed,
            Owner::Read => &mut self.read_failed,
        }
    }

    /// The error of `owner`'s failed queued call, if one failed.
    fn failure(&mut self, owner: Owner) -> Option<Error> {
        self.failed(owner).clone().map(Response::into_error)
    }

    /// Read the replies owed to sent queued calls, keeping the first
    /// failure of each transaction for that transaction.
    fn collect_queued(&mut self) -> tdb_wire::Result<()> {
        for owner in std::mem::take(&mut self.owed) {
            let reply = Response::decode(&read_frame(&mut self.reader)?)?;
            let failed = self.failed(owner);
            if failed.is_none() && reply != Response::Ok {
                *failed = Some(reply);
            }
        }
        Ok(())
    }

    /// Send the queued calls alone, if there are any, and read their
    /// replies.
    fn flush_queue(&mut self) -> tdb_wire::Result<()> {
        if self.owed.is_empty() {
            return Ok(());
        }
        self.send(None)?;
        self.collect_queued()
    }

    /// One round trip for `req`, carrying the queued calls ahead of it.
    fn round_trip(&mut self, req: &Request) -> tdb_wire::Result<Response> {
        self.send(Some(req))?;
        self.collect_queued()?;
        Response::decode(&read_frame(&mut self.reader)?)
    }
}

/// A connection to a `tdb-server`, usable as a [`tdb::Session`].
pub struct RemoteDb {
    conn: Mutex<Conn>,
    /// A read-write / read-only transaction handle is out. The server
    /// holds one of each per connection; checking here means a second
    /// `begin` fails at once instead of queuing a request whose failure
    /// would surface only after later calls ran in the first transaction.
    txn_open: AtomicBool,
    read_open: AtomicBool,
    addr: String,
    tenant: String,
    classes: Arc<ClassRegistry>,
    /// Server-assigned session id (diagnostics).
    session_id: u64,
}

impl RemoteDb {
    /// Connect and shake hands. `classes` must register every class the
    /// application reads or writes — objects cross the wire as pickled
    /// bytes and are decoded locally.
    pub fn connect(addr: &str, tenant: &str, classes: ClassRegistry) -> SResult<RemoteDb> {
        Self::connect_shared(addr, tenant, Arc::new(classes))
    }

    /// [`RemoteDb::connect`] with an already-shared registry (what
    /// [`Session::fork`] uses).
    pub fn connect_shared(
        addr: &str,
        tenant: &str,
        classes: Arc<ClassRegistry>,
    ) -> SResult<RemoteDb> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).ok();
        let mut conn = Conn {
            reader: BufReader::new(stream),
            queued: Vec::new(),
            owed: Vec::new(),
            txn_failed: None,
            read_failed: None,
            broken: false,
        };
        let hello = Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
        };
        write_frame(&mut conn.reader.get_ref(), &hello.encode()).map_err(Error::from)?;
        let reply = read_frame(&mut conn.reader).map_err(Error::from)?;
        let session_id = match Response::decode(&reply).map_err(Error::from)? {
            Response::Welcome { version, session } => {
                if version != PROTOCOL_VERSION {
                    return Err(Error::new(
                        ErrorKind::Usage,
                        format!("server speaks protocol v{version}, client v{PROTOCOL_VERSION}"),
                    ));
                }
                session
            }
            other => return Err(other.into_error()),
        };
        Ok(RemoteDb {
            conn: Mutex::new(conn),
            txn_open: AtomicBool::new(false),
            read_open: AtomicBool::new(false),
            addr: addr.to_string(),
            tenant: tenant.to_string(),
            classes,
            session_id,
        })
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Set the socket read timeout (`None` blocks forever). A timeout
    /// poisons the connection when it fires — the response stream can no
    /// longer be trusted to line up with requests.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> SResult<()> {
        self.conn
            .lock()
            .expect("connection lock poisoned")
            .reader
            .get_ref()
            .set_read_timeout(dur)
            .map_err(io_err)
    }

    /// Run `f` on the connection. A wire failure poisons it for good.
    fn with_conn<T>(&self, f: impl FnOnce(&mut Conn) -> tdb_wire::Result<T>) -> SResult<T> {
        let mut conn = self.conn.lock().expect("connection lock poisoned");
        if conn.broken {
            return Err(Error::new(
                ErrorKind::Io,
                "connection poisoned by an earlier wire failure",
            ));
        }
        f(&mut conn).map_err(|e| {
            conn.broken = true;
            Error::from(e)
        })
    }

    /// One round trip for `req`, carrying any queued calls ahead of it.
    fn call(&self, req: &Request) -> SResult<Response> {
        self.with_conn(|conn| conn.round_trip(req))
    }

    /// A call of `owner`'s transaction. Once one of that transaction's
    /// queued calls failed, every later call returns that failure: it is
    /// not sent, or its reply is dropped if the failure came with it.
    fn call_in(&self, owner: Owner, req: &Request) -> SResult<Response> {
        self.with_conn(|conn| {
            if let Some(e) = conn.failure(owner) {
                return Ok(Err(e));
            }
            let reply = conn.round_trip(req)?;
            Ok(conn.failure(owner).map_or(Ok(reply), Err))
        })?
    }

    /// Queue a call of `owner`'s transaction whose only reply is `Ok`; a
    /// later call sends it (see the crate docs). The queued calls go out
    /// first if this one would take them past [`QUEUE_LIMIT`]. Fails at
    /// once, queuing nothing, if a queued call of the transaction already
    /// did.
    fn queue(&self, owner: Owner, req: &Request) -> SResult<()> {
        let payload = req.encode();
        self.with_conn(|conn| {
            if conn.queued.len() + 4 + payload.len() > QUEUE_LIMIT {
                conn.flush_queue()?;
            }
            if let Some(e) = conn.failure(owner) {
                return Ok(Err(e));
            }
            append_frame(&mut conn.queued, &payload)?;
            conn.owed.push(owner);
            Ok(Ok(()))
        })?
    }

    /// `owner`'s transaction has ended: forget its failure.
    fn end(&self, owner: Owner) {
        if let Ok(mut conn) = self.conn.lock() {
            *conn.failed(owner) = None;
        }
    }
}

/// Take a transaction slot, or fail as the server would if it is taken.
fn claim(slot: &AtomicBool, what: &str) -> SResult<()> {
    if slot.swap(true, Ordering::AcqRel) {
        return Err(Error::new(
            ErrorKind::Usage,
            format!("{what} is already open on this session"),
        ));
    }
    Ok(())
}

impl RemoteDb {
    fn begin_read_with(&self, req: Request) -> SResult<Box<dyn SessionRead + '_>> {
        claim(&self.read_open, "a read transaction")?;
        if let Err(e) = self.queue(Owner::Read, &req) {
            self.read_open.store(false, Ordering::Release);
            return Err(e);
        }
        Ok(Box::new(RemoteRead {
            db: self,
            finished: Cell::new(false),
        }))
    }
}

impl Session for RemoteDb {
    fn begin(&self) -> SResult<Box<dyn SessionTxn + '_>> {
        claim(&self.txn_open, "a read-write transaction")?;
        if let Err(e) = self.queue(Owner::Txn, &Request::Begin) {
            self.txn_open.store(false, Ordering::Release);
            return Err(e);
        }
        Ok(Box::new(RemoteTxn {
            db: self,
            finished: Cell::new(false),
        }))
    }

    fn begin_read(&self) -> SResult<Box<dyn SessionRead + '_>> {
        self.begin_read_with(Request::BeginRead)
    }

    fn begin_read_proven(&self) -> SResult<Box<dyn SessionRead + '_>> {
        self.begin_read_with(Request::BeginReadProven)
    }

    fn fork(&self) -> SResult<Box<dyn Session>> {
        Ok(Box::new(RemoteDb::connect_shared(
            &self.addr,
            &self.tenant,
            self.classes.clone(),
        )?))
    }

    fn classes(&self) -> &ClassRegistry {
        &self.classes
    }

    fn trust_anchor(&self) -> SResult<Vec<u8>> {
        match self.call(&Request::TrustAnchor)? {
            Response::Bytes(b) => Ok(b),
            other => Err(other.into_error()),
        }
    }

    fn stats(&self) -> SResult<SessionStats> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(other.into_error()),
        }
    }

    fn checkpoint(&self) -> SResult<()> {
        expect_ok(self.call(&Request::Checkpoint)?)
    }

    fn backup_full(&self) -> SResult<String> {
        match self.call(&Request::BackupFull)? {
            Response::Bytes(b) => {
                String::from_utf8(b).map_err(|e| Error::new(ErrorKind::Codec, e.to_string()))
            }
            other => Err(other.into_error()),
        }
    }

    fn backup_incremental(&self) -> SResult<String> {
        match self.call(&Request::BackupIncremental)? {
            Response::Bytes(b) => {
                String::from_utf8(b).map_err(|e| Error::new(ErrorKind::Codec, e.to_string()))
            }
            other => Err(other.into_error()),
        }
    }

    fn restore_latest(&self) -> SResult<()> {
        expect_ok(self.call(&Request::RestoreLatest)?)
    }
}

/// The connection's read-write transaction. Dropping without commit/abort
/// sends a best-effort abort so server-side 2PL locks release promptly
/// (the server's idle reaper is the backstop); that abort also carries
/// any queued requests, so none is left behind.
struct RemoteTxn<'a> {
    db: &'a RemoteDb,
    finished: Cell<bool>,
}

impl RemoteTxn<'_> {
    fn call(&self, req: &Request) -> SResult<Response> {
        self.db.call_in(Owner::Txn, req)
    }

    fn queue(&self, req: &Request) -> SResult<()> {
        self.db.queue(Owner::Txn, req)
    }
}

impl SessionTxn for RemoteTxn<'_> {
    fn ensure_collection(&self, coll: &str, specs: &[IndexSpec]) -> SResult<()> {
        self.queue(&Request::EnsureCollection {
            coll: coll.to_string(),
            specs: specs.to_vec(),
        })
    }

    fn insert(&self, coll: &str, bytes: &[u8]) -> SResult<ObjectId> {
        match self.call(&Request::Insert {
            coll: coll.to_string(),
            bytes: bytes.to_vec(),
        })? {
            Response::Id(id) => Ok(id),
            other => Err(other.into_error()),
        }
    }

    fn lookup_ids(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>> {
        match self.call(&Request::LookupIds {
            coll: coll.to_string(),
            index: index.to_string(),
            key: key.clone(),
        })? {
            Response::Ids(ids) => Ok(ids),
            other => Err(other.into_error()),
        }
    }

    fn read(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>> {
        match self.call(&Request::TxnRead {
            coll: coll.to_string(),
            oid,
        })? {
            Response::Bytes(b) => Ok(b),
            other => Err(other.into_error()),
        }
    }

    fn get_for_update(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>> {
        match self.call(&Request::GetForUpdate {
            coll: coll.to_string(),
            oid,
        })? {
            Response::Bytes(b) => Ok(b),
            other => Err(other.into_error()),
        }
    }

    fn write_back(&self, coll: &str, oid: ObjectId, bytes: &[u8]) -> SResult<()> {
        self.queue(&Request::WriteBack {
            coll: coll.to_string(),
            oid,
            bytes: bytes.to_vec(),
        })
    }

    fn commit(self: Box<Self>, durability: Durability) -> SResult<()> {
        self.finished.set(true);
        // Never commit behind an unanswered request: if a queued call of
        // this transaction failed, it must not commit without it.
        let failure = self.db.with_conn(|conn| {
            conn.flush_queue()?;
            Ok(conn.failure(Owner::Txn))
        })?;
        if let Some(e) = failure {
            let _ = self.db.call(&Request::Abort);
            return Err(e);
        }
        expect_ok(self.db.call(&Request::Commit(durability))?)
    }

    fn abort(self: Box<Self>) -> SResult<()> {
        self.finished.set(true);
        // A queued call's error is moot once the transaction is aborted:
        // report the abort's own reply, as the embedded backend does.
        expect_ok(self.db.call(&Request::Abort)?)
    }
}

impl Drop for RemoteTxn<'_> {
    fn drop(&mut self) {
        if !self.finished.get() {
            let _ = self.db.call(&Request::Abort);
        }
        self.db.end(Owner::Txn);
        self.db.txn_open.store(false, Ordering::Release);
    }
}

/// The connection's read-only snapshot transaction.
struct RemoteRead<'a> {
    db: &'a RemoteDb,
    finished: Cell<bool>,
}

impl RemoteRead<'_> {
    fn call(&self, req: &Request) -> SResult<Response> {
        self.db.call_in(Owner::Read, req)
    }
}

impl SessionRead for RemoteRead<'_> {
    fn commit_seq(&self) -> SResult<u64> {
        match self.call(&Request::RCommitSeq)? {
            Response::Count(n) => Ok(n),
            other => Err(other.into_error()),
        }
    }

    fn count(&self, coll: &str) -> SResult<u64> {
        match self.call(&Request::RCount {
            coll: coll.to_string(),
        })? {
            Response::Count(n) => Ok(n),
            other => Err(other.into_error()),
        }
    }

    fn exact(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>> {
        match self.call(&Request::RExact {
            coll: coll.to_string(),
            index: index.to_string(),
            key: key.clone(),
        })? {
            Response::Ids(ids) => Ok(ids),
            other => Err(other.into_error()),
        }
    }

    fn scan(&self, coll: &str, index: &str) -> SResult<Vec<(Key, ObjectId)>> {
        match self.call(&Request::RScan {
            coll: coll.to_string(),
            index: index.to_string(),
        })? {
            Response::Entries(entries) => Ok(entries),
            other => Err(other.into_error()),
        }
    }

    fn range(
        &self,
        coll: &str,
        index: &str,
        min: Bound<Key>,
        max: Bound<Key>,
    ) -> SResult<Vec<(Key, ObjectId)>> {
        match self.call(&Request::RRange {
            coll: coll.to_string(),
            index: index.to_string(),
            min,
            max,
        })? {
            Response::Entries(entries) => Ok(entries),
            other => Err(other.into_error()),
        }
    }

    fn read(&self, oid: ObjectId) -> SResult<Vec<u8>> {
        match self.call(&Request::RGet { oid })? {
            Response::Bytes(b) => Ok(b),
            other => Err(other.into_error()),
        }
    }

    fn read_proven(&self, oid: ObjectId) -> SResult<ProvenBytes> {
        match self.call(&Request::RReadProven { oid })? {
            Response::ProvenBytes {
                value,
                commit_seq,
                proof,
            } => Ok(ProvenBytes {
                value,
                commit_seq,
                proof,
            }),
            other => Err(other.into_error()),
        }
    }

    fn exact_proven(&self, coll: &str, index: &str, key: &Key) -> SResult<ProvenEntries> {
        match self.call(&Request::RExactProven {
            coll: coll.to_string(),
            index: index.to_string(),
            key: key.clone(),
        })? {
            // The query comes from this request, never from the response.
            Response::ProvenEntries { entries, proof } => Ok(ProvenEntries {
                entries,
                proof,
                coll: coll.to_string(),
                index: index.to_string(),
                key: key.clone(),
            }),
            other => Err(other.into_error()),
        }
    }

    fn finish(self: Box<Self>) -> SResult<()> {
        self.finished.set(true);
        expect_ok(self.call(&Request::FinishRead)?)
    }
}

impl Drop for RemoteRead<'_> {
    fn drop(&mut self) {
        if !self.finished.get() {
            let _ = self.call(&Request::FinishRead);
        }
        self.db.end(Owner::Read);
        self.db.read_open.store(false, Ordering::Release);
    }
}
