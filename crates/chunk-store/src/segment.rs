//! Log segments over the untrusted store.
//!
//! The log is a chain of fixed-size segment files (`seg.000000`, ...). New
//! records are appended to the *tail* segment through a write buffer that is
//! flushed at every commit; when a record would overflow the tail, a
//! `NextSegment` record closes it and the log continues in a segment taken
//! from the free list (or newly allocated — the store "can increase or
//! decrease the space allocated for storage", §3.2.1).
//!
//! A segment the cleaner frees is reused **in place**: its header is
//! overwritten with zeros and the file keeps its length and its stale
//! records. A segment file is free when it is empty or its header is all
//! zeros; when the tail enters a free segment it writes the header again,
//! and recovery's scan ends at the stale records past the tail the same way
//! it ends at crash garbage (the first commit record that does not extend
//! the keyed chain). Freeing therefore costs one small unsynced write, not a
//! file-system truncate or discard.
//!
//! The manager also owns per-segment **live-byte accounting**, which is what
//! the cleaner's victim selection and the utilization computation (Figure
//! 11) are based on.

use crate::error::{ChunkStoreError, Result};
use crate::ids::SegmentId;
use crate::layout::{
    decode_record_header, decode_segment_header, encode_next_segment, encode_record_header,
    encode_segment_header, RecordKind, NEXT_SEGMENT_RECORD_LEN, RECORD_HEADER_LEN,
    SEGMENT_HEADER_LEN,
};
use crate::map::Location;
use crate::stats::{add, SharedStats};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use tdb_platform::{RandomAccessFile, UntrustedStore};

/// A record payload handed out by the read path: a shared view into a
/// reference-counted byte buffer. Reads served from the tail write buffer
/// (or the in-flight double-buffered flush) alias the live buffer instead
/// of copying it; file reads own their freshly read vector. Dereferences
/// to `&[u8]`.
#[derive(Clone)]
pub struct RecordBytes {
    buf: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl RecordBytes {
    fn shared(buf: Arc<Vec<u8>>, start: usize, len: usize) -> Self {
        debug_assert!(start + len <= buf.len());
        RecordBytes { buf, start, len }
    }

    /// Wrap an owned vector (no extra copy).
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        RecordBytes {
            buf: Arc::new(v),
            start: 0,
            len,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Copy out to an owned vector (for callers that must own the bytes).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Drop the first `n` bytes of the view.
    fn advance(mut self, n: usize) -> Self {
        debug_assert!(n <= self.len);
        self.start += n;
        self.len -= n;
        self
    }
}

impl std::ops::Deref for RecordBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for RecordBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Where an out-of-lock record read gets its bytes: a shared slice of the
/// tail write buffer (taken while the store lock was held), or a file
/// handle to read from after the lock is released.
pub enum ReadSource {
    /// Shared view of the record bytes still sitting in the unflushed (or
    /// in-flight) tail buffer — no copy taken.
    Buffered(RecordBytes),
    /// File holding the record.
    File(Arc<dyn RandomAccessFile>),
}

/// Second half of an out-of-lock record read: fetch the bytes and check
/// the record framing. A free function on purpose — it must not touch the
/// `SegmentManager` (the store lock may have been released since
/// [`SegmentManager::prepare_read`]).
pub fn complete_read(src: ReadSource, loc: &Location, expect: RecordKind) -> Result<RecordBytes> {
    let tampered =
        |what: String| ChunkStoreError::TamperDetected(format!("record at {loc:?}: {what}"));
    let buf = match src {
        ReadSource::Buffered(bytes) => bytes,
        ReadSource::File(file) => {
            let mut buf = vec![0u8; loc.len as usize];
            file.read_at(loc.off as u64, &mut buf)
                .map_err(|e| match e {
                    tdb_platform::PlatformError::ShortRead { .. } => {
                        tampered("extends past segment end".into())
                    }
                    other => ChunkStoreError::Platform(other),
                })?;
            RecordBytes::from_vec(buf)
        }
    };
    let (kind, len) = decode_record_header(&buf).map_err(|m| tampered(m.0))?;
    if kind != expect {
        return Err(tampered(format!("kind {kind:?}, expected {expect:?}")));
    }
    if len != loc.len - RECORD_HEADER_LEN {
        return Err(tampered("payload length mismatch".into()));
    }
    Ok(buf.advance(RECORD_HEADER_LEN as usize))
}

/// A flushed-but-unwritten tail range the group-commit leader writes and
/// syncs *outside* the store lock, so followers keep sealing and appending
/// into a fresh tail buffer while the previous one is on its way to disk
/// (seal(n+1) overlaps sync(n)). The manager keeps its own copy: any
/// in-lock [`SegmentManager::flush`] writes it first (a duplicate write of
/// identical bytes at the same offset is harmless — same rule as
/// `sync_inflight` double-syncs), so no anchor can cover unwritten bytes.
#[derive(Clone)]
pub struct TailFlush {
    /// Segment the range belongs to.
    pub seg: SegmentId,
    /// Offset of `bytes[0]` within the segment.
    pub start: u32,
    /// The buffered bytes (shared with concurrent tail readers).
    pub bytes: Arc<Vec<u8>>,
    /// Open handle to write through.
    pub file: Arc<dyn RandomAccessFile>,
}

/// Lifecycle state of a segment slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegStatus {
    /// Holds log records (possibly all obsolete).
    InUse,
    /// Holds nothing the anchor references and is ready for reuse in
    /// place: the file is empty or its header is zeroed. Stale records may
    /// remain past the header until the tail overwrites them.
    Free,
    /// File deleted to shrink the database; the id may be reallocated.
    Dropped,
}

struct SegState {
    status: SegStatus,
    /// Bytes of live records (current chunk versions + checkpointed map
    /// pages) in this segment.
    live: u64,
}

/// Manages segment files, the append tail, and live-byte accounting.
pub struct SegmentManager {
    store: Arc<dyn UntrustedStore>,
    seg_size: u32,
    allow_growth: bool,
    states: Vec<SegState>,
    free: BTreeSet<u32>,
    tail: SegmentId,
    /// Next logical append offset in the tail segment.
    tail_off: u32,
    /// Buffered, not-yet-written bytes of the tail segment. Behind an
    /// `Arc` so buffered reads alias it instead of copying; mutation goes
    /// through [`Self::pending_mut`], which clones only if a reader still
    /// holds the buffer.
    pending: Arc<Vec<u8>>,
    /// Tail-segment offset of `pending[0]`.
    pending_start: u32,
    /// Previous tail buffer, handed to the group-commit leader for an
    /// out-of-lock write+sync (see [`TailFlush`]). Cleared when the leader
    /// confirms the write, or by the next in-lock flush.
    inflight: Option<TailFlush>,
    /// Open file handles (interior mutability so reads take `&self`).
    files: Mutex<HashMap<u32, Arc<dyn RandomAccessFile>>>,
    /// Segments written to since the last `sync_touched`.
    touched: BTreeSet<u32>,
    /// Segments the tail entered since the last drain (residual tracking).
    entered: Vec<SegmentId>,
    /// While a *checkpoint* drives the log it may roll into the last free
    /// segment. Nothing else on a fixed-size log may — not ordinary
    /// commits and not the cleaner's relocation appends: that segment is
    /// reserved for the checkpoint that turns relocations into freed
    /// segments. Relocations become reclaimable only through a checkpoint
    /// that itself needs log space, so letting anything else consume the
    /// final segment wedges the store in out-of-space with the log almost
    /// empty (the cleaner runs forever, frees nothing).
    maintenance_mode: bool,
    stats: SharedStats,
}

impl SegmentManager {
    /// Create a fresh log: `initial` segments, tail in segment 0.
    pub fn create(
        store: Arc<dyn UntrustedStore>,
        seg_size: u32,
        initial: u32,
        allow_growth: bool,
        stats: SharedStats,
    ) -> Result<Self> {
        let mut mgr = SegmentManager {
            store,
            seg_size,
            allow_growth,
            states: Vec::new(),
            free: BTreeSet::new(),
            tail: SegmentId(0),
            tail_off: SEGMENT_HEADER_LEN,
            pending: Arc::new(encode_segment_header(SegmentId(0)).to_vec()),
            pending_start: 0,
            inflight: None,
            files: Mutex::new(HashMap::new()),
            touched: BTreeSet::new(),
            entered: vec![SegmentId(0)],
            maintenance_mode: false,
            stats,
        };
        for i in 0..initial {
            mgr.states.push(SegState {
                status: SegStatus::Free,
                live: 0,
            });
            mgr.free.insert(i);
        }
        mgr.free.remove(&0);
        mgr.states[0].status = SegStatus::InUse;
        // Materialize the files so the database footprint is visible.
        for i in 0..initial {
            mgr.store.open(&SegmentId(i).file_name(), true)?;
        }
        mgr.touched.insert(0);
        Ok(mgr)
    }

    /// Attach to an existing log. Live accounting and the tail position are
    /// unknown until recovery calls [`set_tail`](Self::set_tail) and
    /// [`add_live`](Self::add_live).
    pub fn open_existing(
        store: Arc<dyn UntrustedStore>,
        seg_size: u32,
        allow_growth: bool,
        stats: SharedStats,
    ) -> Result<Self> {
        let mut max_id: Option<u32> = None;
        let mut present: HashMap<u32, SegStatus> = HashMap::new();
        for name in store.list()? {
            if let Some(idx) = name
                .strip_prefix("seg.")
                .and_then(|s| s.parse::<u32>().ok())
            {
                let status = if is_free_file(&*store.open(&name, false)?)? {
                    SegStatus::Free
                } else {
                    SegStatus::InUse
                };
                present.insert(idx, status);
                max_id = Some(max_id.map_or(idx, |m| m.max(idx)));
            }
        }
        let count = max_id.map_or(0, |m| m + 1);
        let mut states = Vec::with_capacity(count as usize);
        let mut free = BTreeSet::new();
        for i in 0..count {
            let status = present.get(&i).copied().unwrap_or(SegStatus::Dropped);
            if status == SegStatus::Free {
                free.insert(i);
            }
            states.push(SegState { status, live: 0 });
        }
        Ok(SegmentManager {
            store,
            seg_size,
            allow_growth,
            states,
            free,
            tail: SegmentId(0),
            tail_off: SEGMENT_HEADER_LEN,
            pending: Arc::new(Vec::new()),
            pending_start: 0,
            inflight: None,
            files: Mutex::new(HashMap::new()),
            touched: BTreeSet::new(),
            entered: Vec::new(),
            maintenance_mode: false,
            stats,
        })
    }

    /// Mutable access to the tail buffer; clones it only when a concurrent
    /// buffered reader still holds the `Arc`.
    fn pending_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.pending)
    }

    /// Empty the tail buffer without copying its contents when a reader
    /// still aliases it (`make_mut` would clone the bytes being discarded).
    fn pending_clear(&mut self) {
        match Arc::get_mut(&mut self.pending) {
            Some(v) => v.clear(),
            None => self.pending = Arc::new(Vec::new()),
        }
    }

    /// Position recovery determined the tail to be at.
    pub fn set_tail(&mut self, seg: SegmentId, off: u32) {
        self.tail = seg;
        self.tail_off = off;
        self.pending_clear();
        self.pending_start = off;
        self.states[seg.0 as usize].status = SegStatus::InUse;
        self.free.remove(&seg.0);
    }

    /// Current tail position (the next record lands here).
    pub fn tail_pos(&self) -> (SegmentId, u32) {
        (self.tail, self.tail_off)
    }

    fn file(&self, seg: SegmentId) -> Result<Arc<dyn RandomAccessFile>> {
        let mut files = self.files.lock();
        if let Some(f) = files.get(&seg.0) {
            return Ok(f.clone());
        }
        let f: Arc<dyn RandomAccessFile> = Arc::from(self.store.open(&seg.file_name(), true)?);
        files.insert(seg.0, f.clone());
        Ok(f)
    }

    /// Append a record, returning its location fields (hash is the
    /// caller's concern). The payload must fit in a fresh segment.
    pub fn append_record(
        &mut self,
        kind: RecordKind,
        payload: &[u8],
    ) -> Result<(SegmentId, u32, u32)> {
        self.append_record_parts(kind, &[payload])
    }

    /// Append a record whose payload is the concatenation of `parts`,
    /// framed once up front — the parts are copied straight into the tail
    /// buffer with no intermediate concatenation vector (the zero-copy
    /// path for sealed chunks from the seal arena and for commit records'
    /// `payload || chain` pairs).
    pub fn append_record_parts(
        &mut self,
        kind: RecordKind,
        parts: &[&[u8]],
    ) -> Result<(SegmentId, u32, u32)> {
        let payload_len: usize = parts.iter().map(|p| p.len()).sum();
        let total = RECORD_HEADER_LEN + payload_len as u32;
        let capacity = self.seg_size - SEGMENT_HEADER_LEN - NEXT_SEGMENT_RECORD_LEN;
        assert!(
            total <= capacity,
            "record of {total} bytes exceeds segment capacity {capacity}; \
             the store must enforce max chunk size"
        );
        if self.tail_off + total + NEXT_SEGMENT_RECORD_LEN > self.seg_size {
            self.roll_segment()?;
        }
        let off = self.tail_off;
        let pending = self.pending_mut();
        pending.reserve(total as usize);
        pending.extend_from_slice(&encode_record_header(kind, payload_len as u32));
        for part in parts {
            pending.extend_from_slice(part);
        }
        self.tail_off += total;
        // Only chunk data and map pages are "live" (reclaimable state).
        // Commit records matter only while inside the residual log, which
        // is excluded from cleaning wholesale, so counting them live would
        // keep fully-dead segments from ever being reclaimed.
        if matches!(kind, RecordKind::ChunkData | RecordKind::MapPage) {
            self.states[self.tail.0 as usize].live += total as u64;
        }
        add(&self.stats.bytes_appended, total as u64);
        add(&self.stats.records_appended, 1);
        match kind {
            RecordKind::ChunkData => add(&self.stats.chunk_bytes_appended, total as u64),
            RecordKind::MapPage => add(&self.stats.map_bytes_appended, total as u64),
            RecordKind::Commit => add(&self.stats.commit_bytes_appended, total as u64),
            RecordKind::NextSegment => {}
        }
        Ok((self.tail, off, total))
    }

    /// Close the tail with a `NextSegment` record and continue in a free
    /// (or newly grown) segment. Failure-atomic: if the flush fails (e.g.
    /// the store is down mid-commit), the pointer record is removed from
    /// the write buffer and `next` returns to the free pool, so the tail
    /// stays open and a later append can retry the roll.
    fn roll_segment(&mut self) -> Result<()> {
        // On a fixed-size log the last free segment is reserved for
        // checkpoints (see `maintenance_mode`): an ordinary commit or a
        // cleaner relocation that needs it stops instead, keeping the
        // closing checkpoint — the step that actually frees segments —
        // able to make progress.
        if !self.allow_growth && !self.maintenance_mode && self.free.len() <= 1 {
            return Err(ChunkStoreError::OutOfSpace {
                needed: self.seg_size as u64,
            });
        }
        let next = match self.free.pop_first() {
            Some(i) => SegmentId(i),
            None => self.grow()?,
        };
        let nxt = encode_next_segment(next);
        let mark = self.pending.len();
        let pending = self.pending_mut();
        pending.extend_from_slice(&encode_record_header(
            RecordKind::NextSegment,
            nxt.len() as u32,
        ));
        pending.extend_from_slice(&nxt);
        if let Err(e) = self.flush() {
            self.pending_mut().truncate(mark);
            self.free.insert(next.0);
            return Err(e);
        }
        add(&self.stats.bytes_appended, NEXT_SEGMENT_RECORD_LEN as u64);

        self.states[next.0 as usize].status = SegStatus::InUse;
        self.tail = next;
        self.tail_off = SEGMENT_HEADER_LEN;
        self.pending = Arc::new(encode_segment_header(next).to_vec());
        self.pending_start = 0;
        self.entered.push(next);
        Ok(())
    }

    /// Allocate a brand-new segment slot (or resurrect a dropped one).
    fn grow(&mut self) -> Result<SegmentId> {
        if !self.allow_growth {
            return Err(ChunkStoreError::OutOfSpace {
                needed: self.seg_size as u64,
            });
        }
        add(&self.stats.segments_grown, 1);
        if let Some(i) = self
            .states
            .iter()
            .position(|s| s.status == SegStatus::Dropped)
        {
            self.states[i] = SegState {
                status: SegStatus::Free,
                live: 0,
            };
            self.store.open(&SegmentId(i as u32).file_name(), true)?;
            return Ok(SegmentId(i as u32));
        }
        let id = SegmentId(self.states.len() as u32);
        self.states.push(SegState {
            status: SegStatus::Free,
            live: 0,
        });
        self.store.open(&id.file_name(), true)?;
        Ok(id)
    }

    /// Write the in-flight double-buffered range, if any (in-lock paths
    /// cannot assume the leader's out-of-lock write has happened yet; the
    /// leader writing the same bytes again afterwards is harmless).
    fn write_inflight(&mut self) -> Result<()> {
        if let Some(tf) = &self.inflight {
            tf.file.write_at(tf.start as u64, &tf.bytes)?;
            self.inflight = None;
        }
        Ok(())
    }

    /// Write buffered tail bytes out (no sync).
    pub fn flush(&mut self) -> Result<()> {
        self.write_inflight()?;
        if self.pending.is_empty() {
            return Ok(());
        }
        let file = self.file(self.tail)?;
        file.write_at(self.pending_start as u64, &self.pending)?;
        self.pending_start += self.pending.len() as u32;
        self.pending_clear();
        self.touched.insert(self.tail.0);
        Ok(())
    }

    /// Sync every segment written since the last call. On error the
    /// not-yet-synced segments stay in the touched set, so a later anchor
    /// cannot cover data that never reached disk (re-syncing the ones
    /// that did succeed would be harmless; skipping one is not).
    pub fn sync_touched(&mut self) -> Result<()> {
        self.flush()?;
        let ids: Vec<u32> = self.touched.iter().copied().collect();
        for seg in ids {
            self.file(SegmentId(seg))?.sync()?;
            self.touched.remove(&seg);
            add(&self.stats.syncs, 1);
        }
        Ok(())
    }

    /// Hand the touched segments' file handles to the caller for an
    /// out-of-lock sync (the group-commit leader's overlap: appenders keep
    /// the manager while the leader syncs), together with the unwritten
    /// tail buffer as a [`TailFlush`] for the leader to write *and* sync
    /// outside the store lock — the double-buffered append: a fresh tail
    /// buffer starts filling immediately, so seal/append of commit n+1
    /// overlaps the write+sync of commit n. Any previously outstanding
    /// in-flight range is written in-lock first (it may belong to a failed
    /// leader round). The touched set transfers with the handles — on a
    /// failed sync the caller must give the ids back via
    /// [`restore_touched`](Self::restore_touched); the manager retains the
    /// in-flight copy either way, so the bytes cannot be lost.
    #[allow(clippy::type_complexity)]
    pub fn take_touched_deferred(
        &mut self,
    ) -> Result<(Vec<(u32, Arc<dyn RandomAccessFile>)>, Option<TailFlush>)> {
        self.write_inflight()?;
        let tail_flush = if self.pending.is_empty() {
            None
        } else {
            let file = self.file(self.tail)?;
            let bytes = std::mem::replace(&mut self.pending, Arc::new(Vec::new()));
            let tf = TailFlush {
                seg: self.tail,
                start: self.pending_start,
                bytes,
                file,
            };
            self.pending_start += tf.bytes.len() as u32;
            self.touched.insert(self.tail.0);
            self.inflight = Some(tf.clone());
            Some(tf)
        };
        let ids: Vec<u32> = std::mem::take(&mut self.touched).into_iter().collect();
        let mut out = Vec::with_capacity(ids.len());
        for seg in &ids {
            match self.file(SegmentId(*seg)) {
                Ok(f) => out.push((*seg, f)),
                Err(e) => {
                    self.touched.extend(ids);
                    return Err(e);
                }
            }
        }
        Ok((out, tail_flush))
    }

    /// The leader confirms its out-of-lock write of `tf` reached the file:
    /// drop the manager's in-flight copy (unless an in-lock flush already
    /// wrote and dropped it, or a newer range replaced it).
    pub fn finish_tail_flush(&mut self, tf: &TailFlush) {
        if let Some(cur) = &self.inflight {
            if Arc::ptr_eq(&cur.bytes, &tf.bytes) {
                self.inflight = None;
            }
        }
    }

    /// Re-mark segments dirty after a failed out-of-lock sync.
    pub fn restore_touched(&mut self, ids: impl IntoIterator<Item = u32>) {
        self.touched.extend(ids);
    }

    /// Sync specific segments without touching the dirty bookkeeping (used
    /// to cover another thread's in-flight out-of-lock sync: syncing a
    /// segment twice is harmless, skipping one is not).
    pub fn sync_ids<'a>(&self, ids: impl IntoIterator<Item = &'a u32>) -> Result<()> {
        for seg in ids {
            self.file(SegmentId(*seg))?.sync()?;
            add(&self.stats.syncs, 1);
        }
        Ok(())
    }

    /// Read a record's stored payload. Verifies the header's kind and
    /// length against the expected location. The payload hash is checked by
    /// the caller (who knows the expected digest). Bytes still sitting in
    /// the tail write buffer are served from memory.
    pub fn read_record(&self, loc: &Location, expect: RecordKind) -> Result<RecordBytes> {
        let src = self.prepare_read(loc)?;
        let out = complete_read(src, loc, expect)?;
        add(&self.stats.bytes_read, loc.len as u64);
        Ok(out)
    }

    /// First half of an out-of-lock record read (call with the store lock
    /// held): resolve `loc` to a [`ReadSource`]. Bytes still in the tail
    /// write buffer are copied out now; everything else yields a clonable
    /// file handle so the I/O, hash check, and decryption can run after
    /// the lock is released ([`complete_read`]). The caller must keep the
    /// segment from being freed meanwhile (snapshot readers do: the
    /// snapshot pins its segments against the cleaner).
    pub fn prepare_read(&self, loc: &Location) -> Result<ReadSource> {
        let tampered =
            |what: String| ChunkStoreError::TamperDetected(format!("record at {loc:?}: {what}"));
        if loc.len < RECORD_HEADER_LEN {
            return Err(tampered("impossible length".into()));
        }
        if loc.seg == self.tail && loc.off >= self.pending_start && !self.pending.is_empty() {
            // Unflushed tail bytes: records are appended whole, so the
            // record lies entirely within `pending`. Hand out a shared
            // view — no copy per buffered read.
            let start = (loc.off - self.pending_start) as usize;
            let end = start + loc.len as usize;
            if end > self.pending.len() {
                return Err(tampered("extends past the write buffer".into()));
            }
            return Ok(ReadSource::Buffered(RecordBytes::shared(
                self.pending.clone(),
                start,
                loc.len as usize,
            )));
        }
        if let Some(tf) = &self.inflight {
            // The double-buffered range: flushed from the tail buffer but
            // possibly not yet written by the leader — the file may not
            // have the bytes, so serve them from memory.
            if loc.seg == tf.seg && loc.off >= tf.start {
                let start = (loc.off - tf.start) as usize;
                let end = start + loc.len as usize;
                if end <= tf.bytes.len() {
                    return Ok(ReadSource::Buffered(RecordBytes::shared(
                        tf.bytes.clone(),
                        start,
                        loc.len as usize,
                    )));
                }
            }
        }
        Ok(ReadSource::File(self.file(loc.seg)?))
    }

    /// Raw read used by recovery's sequential scan: `(kind, payload)` at an
    /// arbitrary position, `None` when the bytes cannot be a record (end of
    /// usable log).
    pub fn read_record_at(
        &self,
        seg: SegmentId,
        off: u32,
    ) -> Result<Option<(RecordKind, Vec<u8>)>> {
        if off + RECORD_HEADER_LEN > self.seg_size {
            return Ok(None);
        }
        let file = self.file(seg)?;
        let mut header = [0u8; RECORD_HEADER_LEN as usize];
        if file.read_at(off as u64, &mut header).is_err() {
            return Ok(None);
        }
        let Ok((kind, len)) = decode_record_header(&header) else {
            return Ok(None);
        };
        if off + RECORD_HEADER_LEN + len > self.seg_size {
            return Ok(None);
        }
        let mut payload = vec![0u8; len as usize];
        if file
            .read_at((off + RECORD_HEADER_LEN) as u64, &mut payload)
            .is_err()
        {
            return Ok(None);
        }
        Ok(Some((kind, payload)))
    }

    /// Whether `seg` is a known, non-dropped segment slot.
    pub fn is_valid_segment(&self, seg: SegmentId) -> bool {
        (seg.0 as usize) < self.states.len()
            && self.states[seg.0 as usize].status != SegStatus::Dropped
    }

    /// Validate a segment's on-disk header (recovery sanity check).
    pub fn check_segment_header(&self, seg: SegmentId) -> Result<bool> {
        let file = self.file(seg)?;
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        if file.read_at(0, &mut header).is_err() {
            return Ok(false);
        }
        Ok(matches!(decode_segment_header(&header), Ok(s) if s == seg))
    }

    // -- live accounting ------------------------------------------------

    /// Credit live bytes to a segment (recovery rebuild / new appends are
    /// credited automatically by `append_record`). Returns `false`, and
    /// credits nothing, when `seg` is not in use: a free, dropped or unknown
    /// segment holds nothing a valid anchor references.
    pub fn add_live(&mut self, seg: SegmentId, bytes: u64) -> bool {
        match self.states.get_mut(seg.0 as usize) {
            Some(s) if s.status == SegStatus::InUse => {
                s.live += bytes;
                true
            }
            _ => false,
        }
    }

    /// Remove live bytes (a version became obsolete and reclaimable).
    pub fn sub_live(&mut self, seg: SegmentId, bytes: u64) {
        let live = &mut self.states[seg.0 as usize].live;
        debug_assert!(*live >= bytes, "live-byte underflow on {seg:?}");
        *live = live.saturating_sub(bytes);
    }

    /// Live bytes in a segment.
    pub fn live_of(&self, seg: SegmentId) -> u64 {
        self.states[seg.0 as usize].live
    }

    /// Sum of live bytes.
    pub fn total_live(&self) -> u64 {
        self.states.iter().map(|s| s.live).sum()
    }

    /// Segments currently holding data (tail included).
    pub fn in_use_segments(&self) -> Vec<SegmentId> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.status == SegStatus::InUse)
            .map(|(i, _)| SegmentId(i as u32))
            .collect()
    }

    /// Number of free segments ready for reuse.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Enter/leave checkpoint mode (see the `maintenance_mode` field);
    /// returns the previous value so nested sections restore correctly.
    /// Only `Inner::do_checkpoint` should set this.
    pub fn set_maintenance(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.maintenance_mode, on)
    }

    /// Whether `seg` currently holds data (a cleaning pass re-checks this
    /// before freeing a victim: another pass may have freed it meanwhile).
    pub fn is_in_use(&self, seg: SegmentId) -> bool {
        self.states[seg.0 as usize].status == SegStatus::InUse
    }

    /// live bytes / in-use capacity — the paper's database utilization.
    pub fn utilization(&self) -> f64 {
        let in_use = self
            .states
            .iter()
            .filter(|s| s.status == SegStatus::InUse)
            .count();
        if in_use == 0 {
            return 0.0;
        }
        self.total_live() as f64 / (in_use as f64 * self.seg_size as f64)
    }

    /// Total bytes the database occupies on the untrusted store (segments
    /// only; the anchor adds a constant). This is Figure 11's "database
    /// size" metric. It counts in-use segments only: a free segment keeps
    /// its file until the tail reuses it or `drop_excess_free` deletes it.
    pub fn disk_size(&self) -> u64 {
        let in_use = self
            .states
            .iter()
            .filter(|s| s.status == SegStatus::InUse)
            .count();
        in_use as u64 * self.seg_size as u64
    }

    /// Mark a fully dead segment reusable in place by zeroing its header.
    /// The write is not synced: the anchor that made the segment dead
    /// references nothing in it, so if a crash loses the zeroing the
    /// segment reopens as a dead in-use one and the next pass frees it
    /// without copying. On error the segment stays in use.
    pub fn free_segment(&mut self, seg: SegmentId) -> Result<()> {
        assert_ne!(seg, self.tail, "cannot free the tail segment");
        let state = &self.states[seg.0 as usize];
        assert_eq!(state.live, 0, "freeing segment with live bytes");
        assert_eq!(state.status, SegStatus::InUse);
        self.file(seg)?
            .write_at(0, &[0u8; SEGMENT_HEADER_LEN as usize])?;
        self.states[seg.0 as usize].status = SegStatus::Free;
        self.free.insert(seg.0);
        Ok(())
    }

    /// Delete free segment files beyond `reserve`, shrinking the on-disk
    /// footprint. Returns how many were dropped.
    pub fn drop_excess_free(&mut self, reserve: usize) -> Result<usize> {
        // Shrinking is only sound when the log can grow back: `grow`
        // refuses to resurrect dropped slots on a fixed-size log, so
        // dropping here would permanently lose capacity — eventually
        // leaving the cleaner no free segment to relocate into and
        // wedging the store in out-of-space at low utilization.
        if !self.allow_growth {
            return Ok(0);
        }
        let mut dropped = 0;
        while self.free.len() > reserve {
            let idx = *self.free.iter().next_back().expect("non-empty");
            self.free.remove(&idx);
            self.states[idx as usize].status = SegStatus::Dropped;
            self.files.lock().remove(&idx);
            self.store.remove(&SegmentId(idx).file_name())?;
            dropped += 1;
            add(&self.stats.segments_dropped, 1);
            tdb_obs::trace::emit(
                tdb_obs::TraceLayer::Maint,
                tdb_obs::TraceKind::SegDrop,
                0,
                idx as u64,
                self.free.len() as u64,
            );
        }
        Ok(dropped)
    }

    /// Drain segments the tail entered since the last call (the store adds
    /// them to the residual set).
    pub fn drain_entered(&mut self) -> Vec<SegmentId> {
        std::mem::take(&mut self.entered)
    }

    /// Segment size in bytes.
    pub fn segment_size(&self) -> u32 {
        self.seg_size
    }
}

/// Whether a segment file is free: empty, or its header zeroed by
/// [`SegmentManager::free_segment`]. Any other header — a torn one, or one
/// naming another segment — leaves the file in use, so recovery's header
/// checks still see it.
fn is_free_file(file: &dyn RandomAccessFile) -> Result<bool> {
    let len = file.len()?.min(SEGMENT_HEADER_LEN as u64) as usize;
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    file.read_at(0, &mut header[..len])?;
    Ok(header[..len].iter().all(|b| *b == 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;
    use tdb_platform::MemStore;

    fn mgr(seg_size: u32, initial: u32) -> (SegmentManager, MemStore) {
        let mem = MemStore::new();
        let stats = Arc::new(Stats::default());
        let m =
            SegmentManager::create(Arc::new(mem.clone()), seg_size, initial, true, stats).unwrap();
        (m, mem)
    }

    fn mk_loc(pos: (SegmentId, u32, u32)) -> Location {
        Location {
            seg: pos.0,
            off: pos.1,
            len: pos.2,
            hash: [0; 32],
        }
    }

    #[test]
    fn append_and_read_back() {
        let (mut m, _) = mgr(4096, 2);
        let pos = m
            .append_record(RecordKind::ChunkData, b"hello chunk")
            .unwrap();
        m.flush().unwrap();
        let payload = m.read_record(&mk_loc(pos), RecordKind::ChunkData).unwrap();
        assert_eq!(&payload[..], b"hello chunk");
        // Wrong expected kind is tamper.
        assert!(matches!(
            m.read_record(&mk_loc(pos), RecordKind::Commit),
            Err(ChunkStoreError::TamperDetected(_))
        ));
    }

    #[test]
    fn read_from_unflushed_tail_flushes_first() {
        let (mut m, _) = mgr(4096, 2);
        let pos = m.append_record(RecordKind::ChunkData, b"buffered").unwrap();
        // No explicit flush.
        let payload = m.read_record(&mk_loc(pos), RecordKind::ChunkData).unwrap();
        assert_eq!(&payload[..], b"buffered");
    }

    #[test]
    fn buffered_reads_share_the_tail_buffer() {
        // Regression (hot tail re-reads used to `to_vec` the pending
        // range): two buffered reads of the same record must alias the
        // same underlying buffer, not copy it.
        let (mut m, _) = mgr(4096, 2);
        let pos = m.append_record(RecordKind::ChunkData, b"aliased").unwrap();
        let a = m.read_record(&mk_loc(pos), RecordKind::ChunkData).unwrap();
        let b = m.read_record(&mk_loc(pos), RecordKind::ChunkData).unwrap();
        assert_eq!(&a[..], b"aliased");
        assert_eq!(
            a.as_slice().as_ptr(),
            b.as_slice().as_ptr(),
            "buffered reads must return shared slices, not copies"
        );
        // The view survives (and stays correct) after the manager flushes
        // and the buffer is cleared/replaced.
        m.flush().unwrap();
        assert_eq!(&a[..], b"aliased");
        // Post-flush reads come from the file: still the same bytes.
        let c = m.read_record(&mk_loc(pos), RecordKind::ChunkData).unwrap();
        assert_eq!(&c[..], b"aliased");
    }

    #[test]
    fn deferred_flush_serves_reads_and_survives_inlock_flush() {
        let (mut m, _) = mgr(4096, 2);
        let pos = m.append_record(RecordKind::ChunkData, b"deferred").unwrap();
        let (files, tf) = m.take_touched_deferred().unwrap();
        let tf = tf.expect("tail buffer was non-empty");
        assert!(files.iter().any(|(id, _)| *id == m.tail_pos().0 .0));
        // The bytes are NOT on disk yet, but a read must still see them
        // (served from the in-flight buffer).
        let payload = m.read_record(&mk_loc(pos), RecordKind::ChunkData).unwrap();
        assert_eq!(&payload[..], b"deferred");
        // New appends land in a fresh buffer while the old one is in
        // flight (the double-buffer overlap).
        let pos2 = m.append_record(RecordKind::ChunkData, b"next").unwrap();
        assert!(pos2.1 > pos.1);
        // An in-lock flush writes the in-flight range first; the leader's
        // later duplicate write is harmless.
        m.flush().unwrap();
        let payload = m.read_record(&mk_loc(pos), RecordKind::ChunkData).unwrap();
        assert_eq!(&payload[..], b"deferred");
        let payload2 = m.read_record(&mk_loc(pos2), RecordKind::ChunkData).unwrap();
        assert_eq!(&payload2[..], b"next");
        // The leader's confirmation after the in-lock flush is a no-op.
        tf.file.write_at(tf.start as u64, &tf.bytes).unwrap();
        m.finish_tail_flush(&tf);
    }

    #[test]
    fn deferred_flush_leader_write_then_finish() {
        let (mut m, _) = mgr(4096, 2);
        let pos = m
            .append_record(RecordKind::ChunkData, b"leader path")
            .unwrap();
        let (_files, tf) = m.take_touched_deferred().unwrap();
        let tf = tf.unwrap();
        // Leader writes + syncs outside the lock, then confirms.
        tf.file.write_at(tf.start as u64, &tf.bytes).unwrap();
        tf.file.sync().unwrap();
        m.finish_tail_flush(&tf);
        let payload = m.read_record(&mk_loc(pos), RecordKind::ChunkData).unwrap();
        assert_eq!(&payload[..], b"leader path");
        // A second deferred take with an empty tail hands back nothing.
        let (_files, tf2) = m.take_touched_deferred().unwrap();
        assert!(tf2.is_none());
    }

    #[test]
    fn append_record_parts_concatenates() {
        let (mut m, _) = mgr(4096, 2);
        let pos = m
            .append_record_parts(RecordKind::Commit, &[b"abc", b"", b"defg"])
            .unwrap();
        let whole = m.append_record(RecordKind::Commit, b"abcdefg").unwrap();
        assert_eq!(pos.2, whole.2, "identical framing for identical payload");
        let payload = m.read_record(&mk_loc(pos), RecordKind::Commit).unwrap();
        assert_eq!(&payload[..], b"abcdefg");
    }

    #[test]
    fn rolls_to_next_segment_when_full() {
        let (mut m, mem) = mgr(4096, 3);
        let mut segs_seen = BTreeSet::new();
        for _ in 0..40 {
            let (seg, _, _) = m.append_record(RecordKind::ChunkData, &[7u8; 200]).unwrap();
            segs_seen.insert(seg.0);
        }
        assert!(segs_seen.len() >= 2, "should have rolled");
        m.flush().unwrap();
        // The closed segment ends with a NextSegment record readable by scan.
        let raw = mem.raw("seg.000000").unwrap();
        assert!(raw.len() <= 4096);
        let entered = m.drain_entered();
        assert!(entered.contains(&SegmentId(0)));
        assert!(entered.len() >= 2);
    }

    #[test]
    fn grows_when_free_list_empty() {
        let (mut m, _) = mgr(4096, 2);
        for _ in 0..100 {
            m.append_record(RecordKind::ChunkData, &[1u8; 300]).unwrap();
        }
        assert!(m.states.len() > 2);
        assert!(m.stats.snapshot().segments_grown > 0);
    }

    #[test]
    fn growth_disabled_returns_out_of_space() {
        let mem = MemStore::new();
        let stats = Arc::new(Stats::default());
        let mut m = SegmentManager::create(Arc::new(mem), 4096, 2, false, stats).unwrap();
        let mut saw_oos = false;
        for _ in 0..100 {
            match m.append_record(RecordKind::ChunkData, &[1u8; 300]) {
                Ok(_) => {}
                Err(ChunkStoreError::OutOfSpace { .. }) => {
                    saw_oos = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_oos);
    }

    #[test]
    fn live_accounting_and_free() {
        let (mut m, mem) = mgr(4096, 3);
        let pos = m.append_record(RecordKind::ChunkData, &[1u8; 100]).unwrap();
        assert_eq!(m.live_of(pos.0), pos.2 as u64);
        m.sub_live(pos.0, pos.2 as u64);
        assert_eq!(m.live_of(pos.0), 0);
        // Roll off segment 0 so it is not the tail, then free it.
        while m.tail_pos().0 == SegmentId(0) {
            m.append_record(RecordKind::ChunkData, &[1u8; 300]).unwrap();
        }
        m.sub_live(SegmentId(0), m.live_of(SegmentId(0)));
        m.flush().unwrap();
        let before = mem.raw("seg.000000").unwrap();
        m.free_segment(SegmentId(0)).unwrap();
        // Freed in place: the header is zeroed, the length and the stale
        // records stay.
        let after = mem.raw("seg.000000").unwrap();
        assert_eq!(after.len(), before.len());
        assert!(after[..SEGMENT_HEADER_LEN as usize].iter().all(|b| *b == 0));
        assert_eq!(
            after[SEGMENT_HEADER_LEN as usize..],
            before[SEGMENT_HEADER_LEN as usize..]
        );
        assert!(!m.is_in_use(SegmentId(0)));
        assert!(m.free_count() >= 1);
    }

    #[test]
    fn freed_segment_is_reused_with_a_fresh_header() {
        let (mut m, mem) = mgr(4096, 2);
        while m.tail_pos().0 == SegmentId(0) {
            m.append_record(RecordKind::ChunkData, &[1u8; 300]).unwrap();
        }
        m.sub_live(SegmentId(0), m.live_of(SegmentId(0)));
        m.free_segment(SegmentId(0)).unwrap();
        // Fill segment 1: the next roll takes segment 0 from the free list.
        while m.tail_pos().0 == SegmentId(1) {
            m.append_record(RecordKind::ChunkData, &[2u8; 300]).unwrap();
        }
        assert_eq!(m.tail_pos().0, SegmentId(0));
        m.flush().unwrap();
        assert!(m.check_segment_header(SegmentId(0)).unwrap());
        // The file kept its length: stale records lie past the new tail.
        assert!(mem.raw("seg.000000").unwrap().len() > m.tail_pos().1 as usize);
    }

    #[test]
    fn drop_excess_free_shrinks_disk() {
        let (mut m, mem) = mgr(4096, 6);
        assert_eq!(m.free_count(), 5);
        let dropped = m.drop_excess_free(2).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(m.free_count(), 2);
        let files = mem.list().unwrap();
        assert_eq!(files.iter().filter(|n| n.starts_with("seg.")).count(), 3);
        // Growth resurrects dropped slots before inventing new ids.
        for _ in 0..200 {
            m.append_record(RecordKind::ChunkData, &[1u8; 300]).unwrap();
        }
        assert!(m.states.len() == 6 || m.states.len() > 6);
    }

    #[test]
    fn utilization_math() {
        let (mut m, _) = mgr(4096, 2);
        assert_eq!(m.utilization(), 0.0);
        m.append_record(RecordKind::ChunkData, &[0u8; 1000])
            .unwrap();
        let u = m.utilization();
        assert!(u > 0.2 && u < 0.3, "one in-use 4k segment, ~1k live: {u}");
        assert_eq!(m.disk_size(), 4096);
    }

    #[test]
    fn reopen_classifies_segments() {
        let (mut m, mem) = mgr(4096, 4);
        while m.tail_pos().0 == SegmentId(0) {
            m.append_record(RecordKind::ChunkData, &[1u8; 300]).unwrap();
        }
        m.sub_live(SegmentId(0), m.live_of(SegmentId(0)));
        m.free_segment(SegmentId(0)).unwrap();
        m.flush().unwrap();
        // seg0 freed in place (zeroed header), seg1 in use (the tail),
        // seg2/3 and an extra seg5 free (empty); seg4, the gap, dropped.
        mem.open("seg.000005", true).unwrap();
        let stats = Arc::new(Stats::default());
        let m2 = SegmentManager::open_existing(Arc::new(mem), 4096, true, stats).unwrap();
        assert_eq!(m2.free_count(), 4);
        assert_eq!(m2.in_use_segments(), vec![SegmentId(1)]);
        assert!(!m2.is_valid_segment(SegmentId(4)));
    }

    /// Classify one `seg.000003` file with the given contents on reopen.
    fn classify(contents: &[u8]) -> bool {
        let mem = MemStore::new();
        mem.open("seg.000003", true)
            .unwrap()
            .write_at(0, contents)
            .unwrap();
        let stats = Arc::new(Stats::default());
        let m = SegmentManager::open_existing(Arc::new(mem), 4096, true, stats).unwrap();
        m.is_in_use(SegmentId(3))
    }

    #[test]
    fn free_means_empty_or_zeroed_header() {
        let mut body = vec![0u8; 64];
        body[SEGMENT_HEADER_LEN as usize..].fill(0xAB); // stale records
        assert!(!classify(&[]), "empty file is free");
        assert!(!classify(&body), "zeroed header is free");
        assert!(!classify(&[0u8; 5]), "a short all-zero file is free");

        body[..SEGMENT_HEADER_LEN as usize].copy_from_slice(&encode_segment_header(SegmentId(3)));
        assert!(classify(&body), "own header is in use");
        // A header naming another segment is not free: recovery's header
        // check must still get to see (and reject) it.
        body[..SEGMENT_HEADER_LEN as usize].copy_from_slice(&encode_segment_header(SegmentId(7)));
        assert!(classify(&body), "a header naming another segment is in use");
        // A torn header (one stray byte) is not free either.
        let mut torn = [0u8; 64];
        torn[9] = 1;
        assert!(classify(&torn), "a partly zeroed header is in use");
    }

    #[test]
    fn scan_read_stops_at_garbage() {
        let (mut m, _) = mgr(4096, 2);
        let pos = m.append_record(RecordKind::Commit, b"payload").unwrap();
        m.flush().unwrap();
        let got = m.read_record_at(pos.0, pos.1).unwrap().unwrap();
        assert_eq!(got.0, RecordKind::Commit);
        assert_eq!(got.1, b"payload");
        // Past the end: zero kind byte -> None.
        assert!(m.read_record_at(pos.0, pos.1 + pos.2).unwrap().is_none());
        // Out of bounds offset -> None.
        assert!(m.read_record_at(pos.0, 4095).unwrap().is_none());
    }

    #[test]
    fn segment_header_check() {
        let (mut m, mem) = mgr(4096, 2);
        m.append_record(RecordKind::ChunkData, b"x").unwrap();
        m.flush().unwrap();
        assert!(m.check_segment_header(SegmentId(0)).unwrap());
        mem.corrupt("seg.000000", 0, 1).unwrap();
        assert!(!m.check_segment_header(SegmentId(0)).unwrap());
    }

    #[test]
    fn sync_touched_counts() {
        let (mut m, _) = mgr(4096, 2);
        m.append_record(RecordKind::ChunkData, b"x").unwrap();
        m.sync_touched().unwrap();
        assert_eq!(m.stats.snapshot().syncs, 1);
        // Nothing touched -> no extra syncs.
        m.sync_touched().unwrap();
        assert_eq!(m.stats.snapshot().syncs, 1);
    }
}
