//! The TDB wire protocol: length-prefixed frames + lossless codecs for the
//! session API (`tdb::session`).
//!
//! Layout of every frame:
//!
//! ```text
//! +----------------+---------------------+
//! | u32 LE length  | payload (≤ 16 MiB)  |
//! +----------------+---------------------+
//! ```
//!
//! The first frame of a connection is the client [`Hello`]; every frame
//! after that is one [`Request`], answered by exactly one [`Response`]
//! frame, in order. A client may send several requests before reading
//! their replies (see `tdb-client`'s pipelining contract); the server
//! answers them in order and sends the replies to requests that arrived
//! together in one write.
//!
//! Payloads are encoded with the object store's pickle primitives
//! ([`Pickler`] / [`Unpickler`]) — the same order-stable, versionless
//! format objects themselves use — with explicit tags for enums so
//! additions stay backward-detectable.
//!
//! Losslessness contracts (see the codec proptests):
//! * [`ErrorKind`] round-trips exactly, so [`tdb::Error::is_retryable`]
//!   gives the same answer on both sides of the wire.
//! * [`Key`]s round-trip including composites, so index queries behave
//!   identically remote and embedded.
//! * Proofs and trust anchors are **not** re-encoded here — they cross as
//!   opaque `tdb-proof` wire bytes, so a client verifies exactly what an
//!   embedded verifier would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};

use tdb::session::SessionStats;
use tdb::{
    Durability, ErrorKind, IndexKind, IndexSpec, Key, ObjectId, PickleError, Pickler, Unpickler,
};

/// Protocol magic, the first bytes of a connection's first frame.
pub const MAGIC: [u8; 4] = *b"TDB1";

/// Protocol version negotiated in the handshake.
pub const PROTOCOL_VERSION: u16 = 1;

/// Hard cap on a frame payload. A peer announcing (or streaming) more is
/// protocol-broken: the connection cannot resync and must close.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Wire-layer failure: I/O, framing, or codec.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// A length prefix beyond [`MAX_FRAME`] — unrecoverable for the
    /// connection.
    FrameTooLarge(u32),
    /// Payload failed to decode.
    Codec(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            WireError::Codec(m) => write!(f, "wire codec: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<PickleError> for WireError {
    fn from(e: PickleError) -> Self {
        WireError::Codec(e.to_string())
    }
}

impl From<WireError> for tdb::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => tdb::Error::new(ErrorKind::Io, e.to_string()),
            e => tdb::Error::new(ErrorKind::Codec, e.to_string()),
        }
    }
}

/// Result alias for wire operations.
pub type Result<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Append one frame (length prefix + payload) to `buf`. A caller that
/// pipelines requests queues several frames in one buffer and sends them
/// with a single write.
pub fn append_frame(buf: &mut Vec<u8>, payload: &[u8]) -> Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge(u32::MAX))?;
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    buf.reserve(4 + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Write one frame (length prefix + payload) with a single `write` and
/// flush. On a `TCP_NODELAY` socket two writes would leave as two
/// segments.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame's payload. EOF before a complete frame is an I/O error
/// (`UnexpectedEof`); a length prefix over [`MAX_FRAME`] is
/// [`WireError::FrameTooLarge`] and the connection must be dropped. Both
/// ends read through a [`std::io::BufReader`], so a frame costs a copy
/// out of its buffer rather than two system calls.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Scalar codecs
// ---------------------------------------------------------------------------

/// Encode an [`ErrorKind`] as a stable u8. Round-trips losslessly for all
/// current variants; unknown future variants map to `Other` on decode.
pub fn encode_error_kind(k: ErrorKind) -> u8 {
    match k {
        ErrorKind::Tamper => 0,
        ErrorKind::Replay => 1,
        ErrorKind::OutOfSpace => 2,
        ErrorKind::LockTimeout => 3,
        ErrorKind::Deadlock => 4,
        ErrorKind::Io => 5,
        ErrorKind::Codec => 6,
        ErrorKind::NotFound => 7,
        ErrorKind::Constraint => 8,
        ErrorKind::Usage => 9,
        _ => 10,
    }
}

/// Decode an [`ErrorKind`] byte (unknown values decode to `Other`).
pub fn decode_error_kind(b: u8) -> ErrorKind {
    match b {
        0 => ErrorKind::Tamper,
        1 => ErrorKind::Replay,
        2 => ErrorKind::OutOfSpace,
        3 => ErrorKind::LockTimeout,
        4 => ErrorKind::Deadlock,
        5 => ErrorKind::Io,
        6 => ErrorKind::Codec,
        7 => ErrorKind::NotFound,
        8 => ErrorKind::Constraint,
        9 => ErrorKind::Usage,
        _ => ErrorKind::Other,
    }
}

fn encode_durability(d: Durability) -> u8 {
    match d {
        Durability::Durable => 0,
        Durability::Lazy => 1,
    }
}

fn decode_durability(b: u8) -> std::result::Result<Durability, PickleError> {
    match b {
        0 => Ok(Durability::Durable),
        1 => Ok(Durability::Lazy),
        b => Err(PickleError(format!("unknown durability tag {b}"))),
    }
}

fn put_key(p: &mut Pickler, k: &Key) {
    match k {
        Key::I64(v) => {
            p.u8(0);
            p.i64(*v);
        }
        Key::U64(v) => {
            p.u8(1);
            p.u64(*v);
        }
        Key::Str(s) => {
            p.u8(2);
            p.string(s);
        }
        Key::Bytes(b) => {
            p.u8(3);
            p.bytes(b);
        }
        Key::Composite(parts) => {
            p.u8(4);
            p.seq(parts, put_key);
        }
    }
}

fn get_key(u: &mut Unpickler<'_>) -> std::result::Result<Key, PickleError> {
    Ok(match u.u8()? {
        0 => Key::I64(u.i64()?),
        1 => Key::U64(u.u64()?),
        2 => Key::Str(u.string()?),
        3 => Key::Bytes(u.bytes()?.to_vec()),
        4 => Key::Composite(u.seq(get_key)?),
        t => return Err(PickleError(format!("unknown key tag {t}"))),
    })
}

fn put_bound(p: &mut Pickler, b: &std::ops::Bound<Key>) {
    match b {
        std::ops::Bound::Included(k) => {
            p.u8(0);
            put_key(p, k);
        }
        std::ops::Bound::Excluded(k) => {
            p.u8(1);
            put_key(p, k);
        }
        std::ops::Bound::Unbounded => p.u8(2),
    }
}

fn get_bound(u: &mut Unpickler<'_>) -> std::result::Result<std::ops::Bound<Key>, PickleError> {
    Ok(match u.u8()? {
        0 => std::ops::Bound::Included(get_key(u)?),
        1 => std::ops::Bound::Excluded(get_key(u)?),
        2 => std::ops::Bound::Unbounded,
        t => return Err(PickleError(format!("unknown bound tag {t}"))),
    })
}

fn put_spec(p: &mut Pickler, s: &IndexSpec) {
    p.string(&s.name);
    p.string(&s.extractor);
    p.bool(s.unique);
    p.u8(match s.kind {
        IndexKind::BTree => 0,
        IndexKind::Hash => 1,
        IndexKind::List => 2,
    });
    p.bool(s.immutable);
}

fn get_spec(u: &mut Unpickler<'_>) -> std::result::Result<IndexSpec, PickleError> {
    let name = u.string()?;
    let extractor = u.string()?;
    let unique = u.bool()?;
    let kind = match u.u8()? {
        0 => IndexKind::BTree,
        1 => IndexKind::Hash,
        2 => IndexKind::List,
        t => return Err(PickleError(format!("unknown index kind tag {t}"))),
    };
    let immutable = u.bool()?;
    let spec = IndexSpec::new(&name, &extractor, unique, kind);
    Ok(if immutable { spec.immutable() } else { spec })
}

fn put_entries(p: &mut Pickler, entries: &[(Key, ObjectId)]) {
    p.seq(entries, |p, (k, id)| {
        put_key(p, k);
        p.object_id(*id);
    });
}

fn get_entries(u: &mut Unpickler<'_>) -> std::result::Result<Vec<(Key, ObjectId)>, PickleError> {
    u.seq(|u| Ok((get_key(u)?, u.object_id()?)))
}

fn put_stats(p: &mut Pickler, s: &SessionStats) {
    p.u64(s.disk_size);
    p.u64(s.bytes_appended);
    p.u64(s.shards);
    p.u64(s.group_size_count);
    p.u64(s.group_size_sum);
}

fn get_stats(u: &mut Unpickler<'_>) -> std::result::Result<SessionStats, PickleError> {
    Ok(SessionStats {
        disk_size: u.u64()?,
        bytes_appended: u.u64()?,
        shards: u.u64()?,
        group_size_count: u.u64()?,
        group_size_sum: u.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

/// The client's first frame: magic, protocol version, tenant name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Protocol version the client speaks.
    pub version: u16,
    /// Tenant this session bills its quotas against.
    pub tenant: String,
}

impl Hello {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Pickler::new();
        for b in MAGIC {
            p.u8(b);
        }
        p.u16(self.version);
        p.string(&self.tenant);
        p.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Hello> {
        let mut u = Unpickler::new(bytes);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = u.u8()?;
        }
        if magic != MAGIC {
            return Err(WireError::Codec(format!(
                "bad magic {magic:02x?}; not a TDB client"
            )));
        }
        let hello = Hello {
            version: u.u16()?,
            tenant: u.string()?,
        };
        u.finish()?;
        Ok(hello)
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request. The `Txn*` group addresses the connection's single
/// open read-write transaction, the `R*` group its single open read
/// transaction — a session is one conversation, not a multiplexer.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / round-trip probe.
    Ping,
    /// Start the connection's read-write transaction.
    Begin,
    /// Commit it with the given durability.
    Commit(Durability),
    /// Abort it.
    Abort,
    /// Create a collection if missing.
    EnsureCollection {
        /// Collection name.
        coll: String,
        /// Index specs used if the collection is created.
        specs: Vec<IndexSpec>,
    },
    /// Insert a pickled object.
    Insert {
        /// Collection name.
        coll: String,
        /// Pickled object bytes (class id embedded).
        bytes: Vec<u8>,
    },
    /// Exact-match lookup inside the write transaction.
    LookupIds {
        /// Collection name.
        coll: String,
        /// Index name.
        index: String,
        /// Key to match.
        key: Key,
    },
    /// Shared-lock read of a member's bytes.
    TxnRead {
        /// Collection name.
        coll: String,
        /// Member id.
        oid: ObjectId,
    },
    /// Exclusive-lock read beginning a read-modify-write.
    GetForUpdate {
        /// Collection name.
        coll: String,
        /// Member id.
        oid: ObjectId,
    },
    /// Write back a mutated member, running index maintenance.
    WriteBack {
        /// Collection name.
        coll: String,
        /// Member id.
        oid: ObjectId,
        /// Replacement pickled bytes (same class).
        bytes: Vec<u8>,
    },
    /// Start the connection's read-only snapshot transaction.
    BeginRead,
    /// Start it validated for proof-carrying reads.
    BeginReadProven,
    /// End the read transaction.
    FinishRead,
    /// Snapshot commit sequence.
    RCommitSeq,
    /// Collection member count.
    RCount {
        /// Collection name.
        coll: String,
    },
    /// Exact-match query.
    RExact {
        /// Collection name.
        coll: String,
        /// Index name.
        index: String,
        /// Key to match.
        key: Key,
    },
    /// Full index scan.
    RScan {
        /// Collection name.
        coll: String,
        /// Index name.
        index: String,
    },
    /// Range query over an ordered index.
    RRange {
        /// Collection name.
        coll: String,
        /// Index name.
        index: String,
        /// Lower bound.
        min: std::ops::Bound<Key>,
        /// Upper bound.
        max: std::ops::Bound<Key>,
    },
    /// Snapshot read of an object's bytes.
    RGet {
        /// Object id.
        oid: ObjectId,
    },
    /// Proof-carrying read.
    RReadProven {
        /// Object id.
        oid: ObjectId,
    },
    /// Proof-carrying exact lookup.
    RExactProven {
        /// Collection name.
        coll: String,
        /// Index name.
        index: String,
        /// Key to match.
        key: Key,
    },
    /// The wire-encoded trust anchor.
    TrustAnchor,
    /// Database statistics.
    Stats,
    /// Force a checkpoint.
    Checkpoint,
    /// Full backup into the server's configured archive.
    BackupFull,
    /// Incremental backup.
    BackupIncremental,
    /// Restore (always refused on a live server, with the embedded
    /// backend's exact error).
    RestoreLatest,
}

// Request tags. Explicit consts so the codec and its tests can't drift.
const RQ_PING: u8 = 0;
const RQ_BEGIN: u8 = 1;
const RQ_COMMIT: u8 = 2;
const RQ_ABORT: u8 = 3;
const RQ_ENSURE: u8 = 4;
const RQ_INSERT: u8 = 5;
const RQ_LOOKUP: u8 = 6;
const RQ_TREAD: u8 = 7;
const RQ_GETUPD: u8 = 8;
const RQ_WRITEBACK: u8 = 9;
const RQ_BEGINREAD: u8 = 10;
const RQ_BEGINREADPROVEN: u8 = 11;
const RQ_FINISHREAD: u8 = 12;
const RQ_RCOMMITSEQ: u8 = 13;
const RQ_RCOUNT: u8 = 14;
const RQ_REXACT: u8 = 15;
const RQ_RSCAN: u8 = 16;
const RQ_RRANGE: u8 = 17;
const RQ_RGET: u8 = 18;
const RQ_RREADPROVEN: u8 = 19;
const RQ_REXACTPROVEN: u8 = 20;
const RQ_ANCHOR: u8 = 21;
const RQ_STATS: u8 = 22;
const RQ_CHECKPOINT: u8 = 23;
const RQ_BACKUPFULL: u8 = 24;
const RQ_BACKUPINCR: u8 = 25;
const RQ_RESTORE: u8 = 26;

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Pickler::new();
        match self {
            Request::Ping => p.u8(RQ_PING),
            Request::Begin => p.u8(RQ_BEGIN),
            Request::Commit(d) => {
                p.u8(RQ_COMMIT);
                p.u8(encode_durability(*d));
            }
            Request::Abort => p.u8(RQ_ABORT),
            Request::EnsureCollection { coll, specs } => {
                p.u8(RQ_ENSURE);
                p.string(coll);
                p.seq(specs, put_spec);
            }
            Request::Insert { coll, bytes } => {
                p.u8(RQ_INSERT);
                p.string(coll);
                p.bytes(bytes);
            }
            Request::LookupIds { coll, index, key } => {
                p.u8(RQ_LOOKUP);
                p.string(coll);
                p.string(index);
                put_key(&mut p, key);
            }
            Request::TxnRead { coll, oid } => {
                p.u8(RQ_TREAD);
                p.string(coll);
                p.object_id(*oid);
            }
            Request::GetForUpdate { coll, oid } => {
                p.u8(RQ_GETUPD);
                p.string(coll);
                p.object_id(*oid);
            }
            Request::WriteBack { coll, oid, bytes } => {
                p.u8(RQ_WRITEBACK);
                p.string(coll);
                p.object_id(*oid);
                p.bytes(bytes);
            }
            Request::BeginRead => p.u8(RQ_BEGINREAD),
            Request::BeginReadProven => p.u8(RQ_BEGINREADPROVEN),
            Request::FinishRead => p.u8(RQ_FINISHREAD),
            Request::RCommitSeq => p.u8(RQ_RCOMMITSEQ),
            Request::RCount { coll } => {
                p.u8(RQ_RCOUNT);
                p.string(coll);
            }
            Request::RExact { coll, index, key } => {
                p.u8(RQ_REXACT);
                p.string(coll);
                p.string(index);
                put_key(&mut p, key);
            }
            Request::RScan { coll, index } => {
                p.u8(RQ_RSCAN);
                p.string(coll);
                p.string(index);
            }
            Request::RRange {
                coll,
                index,
                min,
                max,
            } => {
                p.u8(RQ_RRANGE);
                p.string(coll);
                p.string(index);
                put_bound(&mut p, min);
                put_bound(&mut p, max);
            }
            Request::RGet { oid } => {
                p.u8(RQ_RGET);
                p.object_id(*oid);
            }
            Request::RReadProven { oid } => {
                p.u8(RQ_RREADPROVEN);
                p.object_id(*oid);
            }
            Request::RExactProven { coll, index, key } => {
                p.u8(RQ_REXACTPROVEN);
                p.string(coll);
                p.string(index);
                put_key(&mut p, key);
            }
            Request::TrustAnchor => p.u8(RQ_ANCHOR),
            Request::Stats => p.u8(RQ_STATS),
            Request::Checkpoint => p.u8(RQ_CHECKPOINT),
            Request::BackupFull => p.u8(RQ_BACKUPFULL),
            Request::BackupIncremental => p.u8(RQ_BACKUPINCR),
            Request::RestoreLatest => p.u8(RQ_RESTORE),
        }
        p.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Request> {
        let mut u = Unpickler::new(bytes);
        let req = Self::get(&mut u)?;
        u.finish()?;
        Ok(req)
    }

    fn get(u: &mut Unpickler<'_>) -> std::result::Result<Request, PickleError> {
        Ok(match u.u8()? {
            RQ_PING => Request::Ping,
            RQ_BEGIN => Request::Begin,
            RQ_COMMIT => Request::Commit(decode_durability(u.u8()?)?),
            RQ_ABORT => Request::Abort,
            RQ_ENSURE => Request::EnsureCollection {
                coll: u.string()?,
                specs: u.seq(get_spec)?,
            },
            RQ_INSERT => Request::Insert {
                coll: u.string()?,
                bytes: u.bytes()?.to_vec(),
            },
            RQ_LOOKUP => Request::LookupIds {
                coll: u.string()?,
                index: u.string()?,
                key: get_key(u)?,
            },
            RQ_TREAD => Request::TxnRead {
                coll: u.string()?,
                oid: u.object_id()?,
            },
            RQ_GETUPD => Request::GetForUpdate {
                coll: u.string()?,
                oid: u.object_id()?,
            },
            RQ_WRITEBACK => Request::WriteBack {
                coll: u.string()?,
                oid: u.object_id()?,
                bytes: u.bytes()?.to_vec(),
            },
            RQ_BEGINREAD => Request::BeginRead,
            RQ_BEGINREADPROVEN => Request::BeginReadProven,
            RQ_FINISHREAD => Request::FinishRead,
            RQ_RCOMMITSEQ => Request::RCommitSeq,
            RQ_RCOUNT => Request::RCount { coll: u.string()? },
            RQ_REXACT => Request::RExact {
                coll: u.string()?,
                index: u.string()?,
                key: get_key(u)?,
            },
            RQ_RSCAN => Request::RScan {
                coll: u.string()?,
                index: u.string()?,
            },
            RQ_RRANGE => Request::RRange {
                coll: u.string()?,
                index: u.string()?,
                min: get_bound(u)?,
                max: get_bound(u)?,
            },
            RQ_RGET => Request::RGet {
                oid: u.object_id()?,
            },
            RQ_RREADPROVEN => Request::RReadProven {
                oid: u.object_id()?,
            },
            RQ_REXACTPROVEN => Request::RExactProven {
                coll: u.string()?,
                index: u.string()?,
                key: get_key(u)?,
            },
            RQ_ANCHOR => Request::TrustAnchor,
            RQ_STATS => Request::Stats,
            RQ_CHECKPOINT => Request::Checkpoint,
            RQ_BACKUPFULL => Request::BackupFull,
            RQ_BACKUPINCR => Request::BackupIncremental,
            RQ_RESTORE => Request::RestoreLatest,
            t => return Err(PickleError(format!("unknown request tag {t}"))),
        })
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One server response. `Err` carries the structured `(kind, message)`
/// pair of [`tdb::Error`], so classification — including
/// [`tdb::Error::is_retryable`] — survives the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with no payload.
    Ok,
    /// The server's hello: protocol version and session id.
    Welcome {
        /// Protocol version the server speaks.
        version: u16,
        /// Server-assigned session id (diagnostics).
        session: u64,
    },
    /// An object id.
    Id(ObjectId),
    /// Raw bytes (pickled object, trust anchor, archive name...).
    Bytes(Vec<u8>),
    /// A list of object ids.
    Ids(Vec<ObjectId>),
    /// `(key, id)` entries.
    Entries(Vec<(Key, ObjectId)>),
    /// A count or sequence number.
    Count(u64),
    /// A proof-carrying byte read.
    ProvenBytes {
        /// The value, or `None` for provable absence.
        value: Option<Vec<u8>>,
        /// Snapshot commit sequence.
        commit_seq: u64,
        /// Wire-encoded chunk proof.
        proof: Vec<u8>,
    },
    /// A proof-carrying lookup.
    ProvenEntries {
        /// Matching entries.
        entries: Vec<(Key, ObjectId)>,
        /// Wire-encoded keyed proof.
        proof: Vec<u8>,
    },
    /// Database statistics.
    Stats(SessionStats),
    /// Structured failure.
    Err {
        /// Stable error classification.
        kind: ErrorKind,
        /// The failing layer's message, verbatim.
        message: String,
    },
}

const RS_OK: u8 = 0;
const RS_WELCOME: u8 = 1;
const RS_ID: u8 = 2;
const RS_BYTES: u8 = 3;
const RS_IDS: u8 = 4;
const RS_ENTRIES: u8 = 5;
const RS_COUNT: u8 = 6;
const RS_PROVENBYTES: u8 = 7;
const RS_PROVENENTRIES: u8 = 8;
const RS_STATS: u8 = 9;
const RS_ERR: u8 = 10;

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Pickler::new();
        match self {
            Response::Ok => p.u8(RS_OK),
            Response::Welcome { version, session } => {
                p.u8(RS_WELCOME);
                p.u16(*version);
                p.u64(*session);
            }
            Response::Id(id) => {
                p.u8(RS_ID);
                p.object_id(*id);
            }
            Response::Bytes(b) => {
                p.u8(RS_BYTES);
                p.bytes(b);
            }
            Response::Ids(ids) => {
                p.u8(RS_IDS);
                p.seq(ids, |p, id| p.object_id(*id));
            }
            Response::Entries(entries) => {
                p.u8(RS_ENTRIES);
                put_entries(&mut p, entries);
            }
            Response::Count(n) => {
                p.u8(RS_COUNT);
                p.u64(*n);
            }
            Response::ProvenBytes {
                value,
                commit_seq,
                proof,
            } => {
                p.u8(RS_PROVENBYTES);
                p.option(value, |p, v| p.bytes(v));
                p.u64(*commit_seq);
                p.bytes(proof);
            }
            Response::ProvenEntries { entries, proof } => {
                p.u8(RS_PROVENENTRIES);
                put_entries(&mut p, entries);
                p.bytes(proof);
            }
            Response::Stats(s) => {
                p.u8(RS_STATS);
                put_stats(&mut p, s);
            }
            Response::Err { kind, message } => {
                p.u8(RS_ERR);
                p.u8(encode_error_kind(*kind));
                p.string(message);
            }
        }
        p.into_bytes()
    }

    /// Decode from a frame payload.
    pub fn decode(bytes: &[u8]) -> Result<Response> {
        let mut u = Unpickler::new(bytes);
        let resp = Self::get(&mut u)?;
        u.finish()?;
        Ok(resp)
    }

    fn get(u: &mut Unpickler<'_>) -> std::result::Result<Response, PickleError> {
        Ok(match u.u8()? {
            RS_OK => Response::Ok,
            RS_WELCOME => Response::Welcome {
                version: u.u16()?,
                session: u.u64()?,
            },
            RS_ID => Response::Id(u.object_id()?),
            RS_BYTES => Response::Bytes(u.bytes()?.to_vec()),
            RS_IDS => Response::Ids(u.seq(|u| u.object_id())?),
            RS_ENTRIES => Response::Entries(get_entries(u)?),
            RS_COUNT => Response::Count(u.u64()?),
            RS_PROVENBYTES => Response::ProvenBytes {
                value: u.option(|u| Ok(u.bytes()?.to_vec()))?,
                commit_seq: u.u64()?,
                proof: u.bytes()?.to_vec(),
            },
            RS_PROVENENTRIES => Response::ProvenEntries {
                entries: get_entries(u)?,
                proof: u.bytes()?.to_vec(),
            },
            RS_STATS => Response::Stats(get_stats(u)?),
            RS_ERR => Response::Err {
                kind: decode_error_kind(u.u8()?),
                message: u.string()?,
            },
            t => return Err(PickleError(format!("unknown response tag {t}"))),
        })
    }

    /// Build the error response for a session failure.
    pub fn from_error(e: &tdb::Error) -> Response {
        Response::Err {
            kind: e.kind(),
            message: e.message().to_string(),
        }
    }

    /// Convert an `Err` response back into the structured error; any other
    /// variant is a protocol violation reported as `Codec`.
    pub fn into_error(self) -> tdb::Error {
        match self {
            Response::Err { kind, message } => tdb::Error::new(kind, message),
            other => tdb::Error::new(
                ErrorKind::Codec,
                format!("protocol violation: unexpected response {other:?}"),
            ),
        }
    }
}
