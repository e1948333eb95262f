//! The TDB network client: a [`tdb::Session`] backend over TCP.
//!
//! [`RemoteDb`] speaks the `tdb-wire` protocol to a `tdb-server`. It
//! implements the same [`Session`] trait as the embedded backend, so any
//! code written against `dyn Session` — the examples, the TPC-B driver —
//! runs against a server unmodified.
//!
//! One connection is one session is one conversation: a single request in
//! flight, at most one open read-write and one open read-only transaction.
//! Concurrency comes from [`Session::fork`], which opens a new connection
//! under the same tenant. Errors arrive as the structured
//! `(ErrorKind, message)` pair, so [`tdb::Error::is_retryable`] works
//! exactly as it does embedded; proofs arrive as `tdb-proof` wire bytes
//! and verify against a wire-decoded trust anchor with no server types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::net::TcpStream;
use std::ops::Bound;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tdb::session::{ProvenBytes, ProvenEntries, SResult, SessionStats};
use tdb::{
    ClassRegistry, Durability, Error, ErrorKind, IndexSpec, Key, ObjectId, Session, SessionRead,
    SessionTxn,
};
use tdb_wire::{read_frame, write_frame, Hello, Request, Response, PROTOCOL_VERSION};

fn io_err(e: impl std::fmt::Display) -> Error {
    Error::new(ErrorKind::Io, e.to_string())
}

struct Conn {
    stream: TcpStream,
    /// Set when a wire-level failure poisons the conversation: request and
    /// response framing can no longer be trusted to line up.
    broken: bool,
}

/// A connection to a `tdb-server`, usable as a [`tdb::Session`].
pub struct RemoteDb {
    conn: Mutex<Conn>,
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
            stream,
            broken: false,
        };
        let hello = Hello {
            version: PROTOCOL_VERSION,
            tenant: tenant.to_string(),
        };
        write_frame(&mut conn.stream, &hello.encode()).map_err(Error::from)?;
        let reply = read_frame(&mut conn.stream).map_err(Error::from)?;
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
            .stream
            .set_read_timeout(dur)
            .map_err(io_err)
    }

    /// One request/response round trip.
    fn call(&self, req: &Request) -> SResult<Response> {
        let mut conn = self.conn.lock().expect("connection lock poisoned");
        if conn.broken {
            return Err(Error::new(
                ErrorKind::Io,
                "connection poisoned by an earlier wire failure",
            ));
        }
        let round_trip = (|| -> tdb_wire::Result<Response> {
            write_frame(&mut conn.stream, &req.encode())?;
            let reply = read_frame(&mut conn.stream)?;
            Response::decode(&reply)
        })();
        match round_trip {
            Ok(resp) => Ok(resp),
            Err(e) => {
                conn.broken = true;
                Err(Error::from(e))
            }
        }
    }

    /// A call that expects the unit `Ok` response.
    fn call_ok(&self, req: &Request) -> SResult<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(other.into_error()),
        }
    }
}

impl Session for RemoteDb {
    fn begin(&self) -> SResult<Box<dyn SessionTxn + '_>> {
        self.call_ok(&Request::Begin)?;
        Ok(Box::new(RemoteTxn {
            db: self,
            finished: Cell::new(false),
        }))
    }

    fn begin_read(&self) -> SResult<Box<dyn SessionRead + '_>> {
        self.call_ok(&Request::BeginRead)?;
        Ok(Box::new(RemoteRead {
            db: self,
            finished: Cell::new(false),
        }))
    }

    fn begin_read_proven(&self) -> SResult<Box<dyn SessionRead + '_>> {
        self.call_ok(&Request::BeginReadProven)?;
        Ok(Box::new(RemoteRead {
            db: self,
            finished: Cell::new(false),
        }))
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
        self.call_ok(&Request::Checkpoint)
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
        self.call_ok(&Request::RestoreLatest)
    }
}

/// The connection's read-write transaction. Dropping without commit/abort
/// sends a best-effort abort so server-side 2PL locks release promptly
/// (the server's idle reaper is the backstop).
struct RemoteTxn<'a> {
    db: &'a RemoteDb,
    finished: Cell<bool>,
}

impl SessionTxn for RemoteTxn<'_> {
    fn ensure_collection(&self, coll: &str, specs: &[IndexSpec]) -> SResult<()> {
        self.db.call_ok(&Request::EnsureCollection {
            coll: coll.to_string(),
            specs: specs.to_vec(),
        })
    }

    fn insert(&self, coll: &str, bytes: &[u8]) -> SResult<ObjectId> {
        match self.db.call(&Request::Insert {
            coll: coll.to_string(),
            bytes: bytes.to_vec(),
        })? {
            Response::Id(id) => Ok(id),
            other => Err(other.into_error()),
        }
    }

    fn lookup_ids(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>> {
        match self.db.call(&Request::LookupIds {
            coll: coll.to_string(),
            index: index.to_string(),
            key: key.clone(),
        })? {
            Response::Ids(ids) => Ok(ids),
            other => Err(other.into_error()),
        }
    }

    fn read(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>> {
        match self.db.call(&Request::TxnRead {
            coll: coll.to_string(),
            oid,
        })? {
            Response::Bytes(b) => Ok(b),
            other => Err(other.into_error()),
        }
    }

    fn get_for_update(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>> {
        match self.db.call(&Request::GetForUpdate {
            coll: coll.to_string(),
            oid,
        })? {
            Response::Bytes(b) => Ok(b),
            other => Err(other.into_error()),
        }
    }

    fn write_back(&self, coll: &str, oid: ObjectId, bytes: &[u8]) -> SResult<()> {
        self.db.call_ok(&Request::WriteBack {
            coll: coll.to_string(),
            oid,
            bytes: bytes.to_vec(),
        })
    }

    fn commit(self: Box<Self>, durability: Durability) -> SResult<()> {
        self.finished.set(true);
        self.db.call_ok(&Request::Commit(durability))
    }

    fn abort(self: Box<Self>) -> SResult<()> {
        self.finished.set(true);
        self.db.call_ok(&Request::Abort)
    }
}

impl Drop for RemoteTxn<'_> {
    fn drop(&mut self) {
        if !self.finished.get() {
            let _ = self.db.call(&Request::Abort);
        }
    }
}

/// The connection's read-only snapshot transaction.
struct RemoteRead<'a> {
    db: &'a RemoteDb,
    finished: Cell<bool>,
}

impl SessionRead for RemoteRead<'_> {
    fn commit_seq(&self) -> SResult<u64> {
        match self.db.call(&Request::RCommitSeq)? {
            Response::Count(n) => Ok(n),
            other => Err(other.into_error()),
        }
    }

    fn count(&self, coll: &str) -> SResult<u64> {
        match self.db.call(&Request::RCount {
            coll: coll.to_string(),
        })? {
            Response::Count(n) => Ok(n),
            other => Err(other.into_error()),
        }
    }

    fn exact(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>> {
        match self.db.call(&Request::RExact {
            coll: coll.to_string(),
            index: index.to_string(),
            key: key.clone(),
        })? {
            Response::Ids(ids) => Ok(ids),
            other => Err(other.into_error()),
        }
    }

    fn scan(&self, coll: &str, index: &str) -> SResult<Vec<(Key, ObjectId)>> {
        match self.db.call(&Request::RScan {
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
        match self.db.call(&Request::RRange {
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
        match self.db.call(&Request::RGet { oid })? {
            Response::Bytes(b) => Ok(b),
            other => Err(other.into_error()),
        }
    }

    fn read_proven(&self, oid: ObjectId) -> SResult<ProvenBytes> {
        match self.db.call(&Request::RReadProven { oid })? {
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
        match self.db.call(&Request::RExactProven {
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
        self.db.call_ok(&Request::FinishRead)
    }
}

impl Drop for RemoteRead<'_> {
    fn drop(&mut self) {
        if !self.finished.get() {
            let _ = self.db.call(&Request::FinishRead);
        }
    }
}
