//! The benchmark's own operation drivers over `dyn Session`.
//!
//! One closed loop per client: the next operation is sent only after the
//! previous one returned. Retryable failures (lock timeouts, deadlock
//! victims) are retried a bounded number of times with jittered backoff and
//! *counted*; anything else, or running out of retries, is a failed
//! operation — never a panic and never an unbounded loop.

use std::ops::Bound;
use std::time::{Duration, Instant};

use tdb::proof::Verifier;
use tdb::session::{modify_bytes, to_bytes, with_bytes};
use tdb::{Durability, Error, ErrorKind, Key, Session, SessionStats};

use crate::gen::{Op, Transfer, RANGE_LEN};
use crate::schema::{History, Record, ACCOUNT, BRANCH, HISTORY, INDEX, TELLER};
use crate::spans::{Recorder, Span};

/// How a window is traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    Off,
    /// Spans are recorded for operations that start in an odd second of
    /// the window and not for those in an even one. Throughput drifts over
    /// a window (the log grows, the cleaner catches up), so tracing on and
    /// off side by side is the only fair way to price the tracing itself.
    AlternateSeconds,
}

/// Whether an operation starting `since_epoch` into the window is traced.
pub fn traced_at(tracing: Tracing, since_epoch: Duration) -> bool {
    tracing == Tracing::AlternateSeconds && since_epoch.as_secs() % 2 == 1
}

/// Attempts per operation before it counts as failed.
pub const MAX_ATTEMPTS: u32 = 16;

/// Span names. Operation roots first, then the public calls under them.
pub mod name {
    pub const OP_TRANSFER: u16 = 0;
    pub const OP_READ: u16 = 1;
    pub const OP_LOOKUP: u16 = 2;
    pub const BEGIN: u16 = 3;
    pub const LOOKUP_IDS: u16 = 4;
    pub const GET_FOR_UPDATE: u16 = 5;
    pub const WRITE_BACK: u16 = 6;
    pub const INSERT: u16 = 7;
    pub const COMMIT: u16 = 8;
    pub const ABORT: u16 = 9;
    pub const BEGIN_READ: u16 = 10;
    pub const EXACT: u16 = 11;
    pub const READ: u16 = 12;
    pub const RANGE: u16 = 13;
    pub const FINISH: u16 = 14;
    pub const BEGIN_READ_PROVEN: u16 = 15;
    pub const EXACT_PROVEN: u16 = 16;
    pub const READ_PROVEN: u16 = 17;
    pub const VERIFY_KEYED: u16 = 18;
    pub const VERIFY_CHUNK: u16 = 19;
    pub const TRUST_ANCHOR: u16 = 20;

    pub const ALL: [&str; 21] = [
        "op.transfer",
        "op.read",
        "op.lookup",
        "session.begin",
        "session.lookup_ids",
        "session.get_for_update",
        "session.write_back",
        "session.insert",
        "session.commit",
        "session.abort",
        "session.begin_read",
        "session.exact",
        "session.read",
        "session.range",
        "session.finish",
        "session.begin_read_proven",
        "session.exact_proven",
        "session.read_proven",
        "proof.verify_keyed",
        "proof.verify_chunk",
        "session.trust_anchor",
    ];
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds since the window opened.
    pub end_ns: u64,
    pub dur_ns: u64,
    pub kind: u16,
    pub ok: bool,
}

/// A once-per-second reading of the store's size counters.
#[derive(Debug, Clone)]
pub struct StatSample {
    pub at_ns: u64,
    pub stats: SessionStats,
}

/// Everything one client observed.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub committed: Vec<Transfer>,
    pub stat_samples: Vec<StatSample>,
    pub attempted: u64,
    pub failed: u64,
    pub retries: u64,
    pub keyed_proof_bytes: u64,
    pub chunk_proof_bytes: u64,
    /// First few failure messages, for the report.
    pub errors: Vec<String>,
}

/// Outcome of an attempt that did not succeed.
enum Failure {
    /// The database refused or broke: counts as failed unless retryable.
    Db(Error),
    /// The reply was wrong: a record for another key, a proof that does not
    /// verify, a count that is off. Never retried.
    Wrong(String),
}

impl From<Error> for Failure {
    fn from(e: Error) -> Self {
        Failure::Db(e)
    }
}

fn wrong<T>(msg: String) -> Result<T, Failure> {
    Err(Failure::Wrong(msg))
}

fn key(id: u32) -> Key {
    Key::U64(u64::from(id))
}

/// A closed-loop client: a session, its slice of the op stream, and its log.
pub struct Client {
    session: Box<dyn Session>,
    ops: Vec<Op>,
    pos: usize,
    next_hist: u32,
    /// Table size, to tell present keys from absent ones.
    accounts: u32,
    /// Samples the store's counters once per second (one client per run).
    samples_stats: bool,
    verifier: Option<Verifier>,
    rec: Recorder,
    pub log: ClientLog,
}

impl Client {
    /// `lane` separates the history ids of concurrent clients.
    pub fn new(session: Box<dyn Session>, ops: Vec<Op>, lane: u32, accounts: u32) -> Client {
        Client {
            session,
            ops,
            pos: 0,
            next_hist: lane << 28,
            accounts,
            samples_stats: lane == 0,
            verifier: None,
            rec: Recorder::new(false, Instant::now()),
            log: ClientLog::default(),
        }
    }

    /// Fetch the trust anchor over the session and verify against it from
    /// now on. Proof workloads call this once at set-up; the transfer that
    /// moves the root refreshes it.
    pub fn refresh_verifier(&mut self) -> Result<(), Error> {
        let session = &*self.session;
        let bytes = self
            .rec
            .call(name::TRUST_ANCHOR, || session.trust_anchor())?;
        let anchor = tdb::proof::wire::decode_trust_anchor(&bytes)
            .map_err(|e| Error::new(ErrorKind::Codec, e.to_string()))?;
        self.verifier = Some(Verifier::new(anchor));
        Ok(())
    }

    /// Start a fresh log (and span buffer) — set-up's warm-up is not part
    /// of what the window reports, but its committed transfers are: the
    /// caller drains `log.committed` into the oracle first.
    pub fn reset(&mut self, epoch: Instant) {
        self.log = ClientLog::default();
        self.rec = Recorder::new(false, epoch);
    }

    /// Hand over what the client logged and recorded since the last
    /// [`reset`](Self::reset).
    pub fn take_results(&mut self) -> (ClientLog, Vec<Span>) {
        let rec = std::mem::replace(&mut self.rec, Recorder::new(false, Instant::now()));
        (std::mem::take(&mut self.log), rec.into_spans())
    }

    /// Run exactly `n` operations (warm-up, ladder rungs).
    pub fn run_ops(&mut self, n: usize) {
        let epoch = Instant::now();
        for _ in 0..n {
            self.one_op(epoch);
        }
    }

    /// Run operations until `deadline`; an operation in flight at the
    /// deadline completes and is logged.
    pub fn run_until(&mut self, epoch: Instant, deadline: Instant, tracing: Tracing) {
        let mut next_stat = Duration::ZERO;
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.rec
                .set_on(traced_at(tracing, now.duration_since(epoch)));
            if self.samples_stats && now.duration_since(epoch) >= next_stat {
                next_stat += Duration::from_secs(1);
                if let Ok(stats) = self.session.stats() {
                    self.log.stat_samples.push(StatSample {
                        at_ns: now.duration_since(epoch).as_nanos() as u64,
                        stats,
                    });
                }
            }
            self.one_op(epoch);
        }
    }

    fn one_op(&mut self, epoch: Instant) {
        let op = self.ops[self.pos % self.ops.len()];
        self.pos += 1;
        let kind = match op {
            Op::Transfer(_) => name::OP_TRANSFER,
            Op::Read { .. } => name::OP_READ,
            Op::ProofLookup { .. } => name::OP_LOOKUP,
        };
        let hist_id = self.next_hist;
        self.next_hist = self.next_hist.wrapping_add(1);
        self.log.attempted += 1;
        let began = Instant::now();
        self.rec.op_begin(kind);
        let mut attempt = 0;
        let ok = loop {
            attempt += 1;
            let outcome = match op {
                Op::Transfer(t) => self.transfer(t, hist_id),
                Op::Read { keys, range_start } => self.read_txn(&keys, range_start),
                Op::ProofLookup { key } => self.proof_lookup(key),
            };
            match outcome {
                Ok(()) => break true,
                Err(Failure::Db(e)) if e.is_retryable() && attempt < MAX_ATTEMPTS => {
                    self.log.retries += 1;
                    backoff(hist_id, attempt);
                }
                Err(Failure::Db(e)) => {
                    self.note_error(format!("{} failed: {e}", name::ALL[kind as usize]));
                    break false;
                }
                Err(Failure::Wrong(m)) => {
                    self.note_error(format!("{} wrong: {m}", name::ALL[kind as usize]));
                    break false;
                }
            }
        };
        self.rec.op_end();
        let done = Instant::now();
        if !ok {
            self.log.failed += 1;
        }
        self.log.samples.push(Sample {
            end_ns: done.saturating_duration_since(epoch).as_nanos() as u64,
            dur_ns: done.duration_since(began).as_nanos() as u64,
            kind,
            ok,
        });
    }

    fn note_error(&mut self, msg: String) {
        if self.log.errors.len() < 5 {
            self.log.errors.push(msg);
        }
    }

    /// `lookup_ids` → `get_for_update` → `write_back` on account, teller and
    /// branch (always in that order, so concurrent clients can contend but
    /// not deadlock), a history `insert`, and a durable `commit`.
    fn transfer(&mut self, t: Transfer, hist_id: u32) -> Result<(), Failure> {
        let session = &*self.session;
        let rec = &mut self.rec;
        let classes = session.classes();
        let txn = rec.call(name::BEGIN, || session.begin())?;
        let mut stage = || -> Result<(), Failure> {
            for (table, id) in [(ACCOUNT, t.account), (TELLER, t.teller), (BRANCH, t.branch)] {
                let ids = rec.call(name::LOOKUP_IDS, || txn.lookup_ids(table, INDEX, &key(id)))?;
                let [oid] = ids[..] else {
                    return wrong(format!("{table} {id}: {} index entries", ids.len()));
                };
                let bytes = rec.call(name::GET_FOR_UPDATE, || txn.get_for_update(table, oid))?;
                let mut found = 0;
                let updated = modify_bytes::<Record>(classes, &bytes, |r| {
                    found = r.id;
                    r.balance += t.delta;
                })?;
                if found != id {
                    return wrong(format!("{table} {id}: got record {found}"));
                }
                rec.call(name::WRITE_BACK, || txn.write_back(table, oid, &updated))?;
            }
            let history = to_bytes(&History::new(
                hist_id, t.account, t.teller, t.branch, t.delta,
            ));
            rec.call(name::INSERT, || txn.insert(HISTORY, &history))?;
            Ok(())
        };
        match stage() {
            Ok(()) => rec.call(name::COMMIT, || txn.commit(Durability::Durable))?,
            Err(e) => {
                let _ = rec.call(name::ABORT, || txn.abort());
                return Err(e);
            }
        }
        self.log.committed.push(t);
        if self.verifier.is_some() {
            // The commit moved the root: later proofs are checked against
            // an anchor fetched after it.
            self.refresh_verifier()?;
        }
        Ok(())
    }

    /// `begin_read`, `exact` + `read` per key, optionally one `range`,
    /// `finish`. Every reply is checked against the key that asked for it.
    fn read_txn(&mut self, keys: &[u32], range_start: Option<u32>) -> Result<(), Failure> {
        let session = &*self.session;
        let rec = &mut self.rec;
        let classes = session.classes();
        let r = rec.call(name::BEGIN_READ, || session.begin_read())?;
        for &k in keys {
            let ids = rec.call(name::EXACT, || r.exact(ACCOUNT, INDEX, &key(k)))?;
            let [oid] = ids[..] else {
                return wrong(format!("account {k}: {} index entries", ids.len()));
            };
            let bytes = rec.call(name::READ, || r.read(oid))?;
            let found = with_bytes::<Record, u32>(classes, &bytes, |rec| rec.id)?;
            if found != k {
                return wrong(format!("account {k}: got record {found}"));
            }
        }
        if let Some(start) = range_start {
            let entries = rec.call(name::RANGE, || {
                r.range(
                    ACCOUNT,
                    INDEX,
                    Bound::Included(key(start)),
                    Bound::Excluded(key(start + RANGE_LEN)),
                )
            })?;
            let in_order = entries.len() == RANGE_LEN as usize
                && entries
                    .iter()
                    .zip(start..)
                    .all(|((k, _), want)| *k == key(want));
            if !in_order {
                return wrong(format!(
                    "range from {start}: {} entries, not the {RANGE_LEN} keys asked for",
                    entries.len()
                ));
            }
        }
        rec.call(name::FINISH, || r.finish())?;
        Ok(())
    }

    /// `begin_read_proven` → `exact_proven` → verify the keyed proof →
    /// `read_proven` → verify the chunk proof against the bytes received.
    /// An absent key must come back provably absent.
    fn proof_lookup(&mut self, k: u32) -> Result<(), Failure> {
        let session = &*self.session;
        let rec = &mut self.rec;
        let classes = session.classes();
        let Some(verifier) = self.verifier.as_ref() else {
            return wrong("no trust anchor fetched".to_string());
        };
        let r = rec.call(name::BEGIN_READ_PROVEN, || session.begin_read_proven())?;
        let hit = rec.call(name::EXACT_PROVEN, || {
            r.exact_proven(ACCOUNT, INDEX, &key(k))
        })?;
        self.log.keyed_proof_bytes += hit.proof.len() as u64;
        if let Err(e) = rec.call(name::VERIFY_KEYED, || hit.verify(verifier)) {
            return wrong(format!("keyed proof for {k} rejected: {e}"));
        }
        let present = k < self.accounts;
        match (&hit.entries[..], present) {
            ([], false) => {}
            ([(_, oid)], true) => {
                let proven = rec.call(name::READ_PROVEN, || r.read_proven(*oid))?;
                self.log.chunk_proof_bytes += proven.proof.len() as u64;
                if let Err(e) = rec.call(name::VERIFY_CHUNK, || proven.verify(verifier)) {
                    return wrong(format!("chunk proof for {k} rejected: {e}"));
                }
                let Some(bytes) = proven.value.as_deref() else {
                    return wrong(format!("account {k}: proven absent but indexed"));
                };
                let found = with_bytes::<Record, u32>(classes, bytes, |rec| rec.id)?;
                if found != k {
                    return wrong(format!("account {k}: proven read got record {found}"));
                }
            }
            (entries, _) => {
                return wrong(format!(
                    "key {k} (present: {present}): {} proven entries",
                    entries.len()
                ));
            }
        }
        rec.call(name::FINISH, || r.finish())?;
        Ok(())
    }
}

/// Jittered exponential backoff. Contending clients that timed out together
/// would otherwise retry in lockstep; the jitter is a hash of (operation,
/// attempt), so a run's delays repeat under the same seed.
fn backoff(op_id: u32, attempt: u32) {
    let h = (u64::from(op_id) << 32 | u64::from(attempt)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let slots = 1u64 << attempt.min(6);
    std::thread::sleep(Duration::from_micros((h >> 32) % (slots * 50) + 1));
}
